import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bprlab import numerics
from bprlab.errors import (
    ContractViolationError,
    RejectedInputError,
    TrainingDivergenceError,
)


def random_model(rng, dims=None, acts=None):
    if dims is None:
        n_layers = int(rng.integers(1, 4))
        dims = [int(rng.integers(1, 7)) for _ in range(n_layers + 1)]
    if acts is None:
        acts = [str(rng.choice(numerics.ACTIVATIONS)) for _ in range(len(dims) - 1)]
    return numerics.init_mlp(dims, acts, rng)


def finite_difference(f, flat, h=1e-6):
    g = np.zeros_like(flat)
    for i in range(flat.size):
        fp, fm = flat.copy(), flat.copy()
        fp[i] += h
        fm[i] -= h
        g[i] = (f(fp) - f(fm)) / (2.0 * h)
    return g


class TestForwardBackward:
    def test_parameter_gradients_match_finite_differences(self):
        rng = np.random.default_rng(0)
        for trial in range(30):
            # tanh only: relu kinks break finite differences at the boundary
            model = random_model(rng, acts=None)
            model = numerics.init_mlp(
                [l.weight.shape[1] for l in model.layers] + [model.output_dim],
                ["tanh"] * len(model.layers), rng)
            n = int(rng.integers(1, 5))
            x = rng.normal(size=(n, model.input_dim))
            w = rng.normal(size=(n, model.output_dim))

            def scalar(flat):
                m2 = model.copy()
                m2.set_flat_parameters(flat)
                y, _ = numerics.forward(m2, x)
                return float(np.sum(w * y))

            y, cache = numerics.forward(model, x)
            analytic, _ = numerics.backward(model, cache, w)
            fd = finite_difference(scalar, model.flat_parameters())
            np.testing.assert_allclose(analytic, fd, rtol=1e-6, atol=1e-8)

    def test_input_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        model = numerics.init_mlp([3, 6, 2], ["tanh", "identity"], rng)
        x = rng.normal(size=(1, 3))
        w = rng.normal(size=(1, 2))
        _, cache = numerics.forward(model, x)
        _, gx = numerics.backward(model, cache, w)
        h = 1e-6
        for i in range(3):
            xp, xm = x.copy(), x.copy()
            xp[0, i] += h
            xm[0, i] -= h
            fd = np.sum((numerics.forward(model, xp)[0] - numerics.forward(model, xm)[0]) * w) / (2 * h)
            assert abs(fd - gx[0, i]) < 1e-7

    def test_one_row_batches_agree_with_the_full_batch(self):
        rng = np.random.default_rng(2)
        model = random_model(rng)
        x = rng.normal(size=(4, model.input_dim))
        yb, _ = numerics.forward(model, x)
        for i in range(4):
            ys, _ = numerics.forward(model, x[i : i + 1])
            # BLAS may order the sums differently for (1, d) vs (n, d)
            np.testing.assert_allclose(ys[0], yb[i], atol=1e-14)

    def test_scalar_head_input_gradient_equals_the_matmul_with_signed_zeros(self):
        # backward forms a width-1 layer's input gradient as an outer product;
        # it must keep the bytes of gz @ weight, where a -0.0 product sums to +0.0
        rng = np.random.default_rng(6)
        for trial in range(50):
            n, h = int(rng.integers(1, 300)), int(rng.integers(1, 70))
            model = numerics.init_mlp([h, 1], ["identity"], rng)
            gy = rng.normal(size=(n, 1))
            for arr in (gy, model.layers[0].weight):
                zeros = rng.random(arr.shape) < 0.3
                arr[zeros] = rng.choice([0.0, -0.0], size=int(zeros.sum()))
            _, cache = numerics.forward(model, rng.normal(size=(n, h)))
            _, gx = numerics.backward(model, cache, gy)
            assert gx.tobytes() == (gy @ model.layers[0].weight).tobytes()
        # -0.0 times a positive weight is -0.0, but the gradient entry is +0.0
        model = numerics.init_mlp([3, 1], ["identity"], rng)
        model.layers[0].weight[...] = [[1.0, -0.0, 0.0]]
        _, cache = numerics.forward(model, np.zeros((2, 3)))
        _, gx = numerics.backward(model, cache, np.array([[-0.0], [0.0]]))
        assert (gx == 0).all() and not np.signbit(gx).any()

    def test_skipped_gradients_leave_the_others_unchanged(self):
        rng = np.random.default_rng(7)
        model = numerics.init_mlp([5, 8, 8, 1], ["relu", "tanh", "identity"], rng)
        _, cache = numerics.forward(model, rng.normal(size=(16, 5)))
        gy = rng.normal(size=(16, 1))
        grad, gx = numerics.backward(model, cache, gy)
        no_params, gx_only = numerics.backward(model, cache, gy, param_grads=False)
        grad_only, no_input = numerics.backward(model, cache, gy, input_grad=False)
        assert no_params is None and no_input is None
        assert gx_only.tobytes() == gx.tobytes()
        assert grad_only.tobytes() == grad.tobytes()

    def test_gradient_has_the_flat_layout_and_fills_a_given_slice(self):
        # the gradient of each layer sits where model.flat holds its parameters,
        # with the bytes of the per-layer products gz.T @ input and gz.sum(axis=0)
        rng = np.random.default_rng(8)
        model = numerics.init_mlp([5, 8, 3], ["relu", "identity"], rng)
        x, gy = rng.normal(size=(16, 5)), rng.normal(size=(16, 3))
        _, cache = numerics.forward(model, x)
        grad, _ = numerics.backward(model, cache, gy)
        gz1 = gy @ model.layers[1].weight * (cache.inputs[1] > 0.0)
        want = [gz1.T @ x, gz1.sum(axis=0), gy.T @ cache.inputs[1], gy.sum(axis=0)]
        assert grad.tobytes() == np.concatenate([w.ravel() for w in want]).tobytes()
        joint = np.full(model.flat.size + 4, 7.0)
        got, _ = numerics.backward(model, cache, gy, out=joint[2:-2])
        assert got.base is joint and got.tobytes() == grad.tobytes()
        assert (joint[:2] == 7.0).all() and (joint[-2:] == 7.0).all()

    @pytest.mark.parametrize("act", ["relu", "tanh", "identity"])
    @pytest.mark.parametrize("single", [False, True])
    def test_backward_keeps_the_output_gradient_and_the_out_of_place_bytes(self, act, single):
        # below the top layer backward multiplies the relu mask into its own
        # gradient array in place; the caller's output gradient stays untouched
        def reference(model, cache, gy):
            outputs, g, grads = cache.inputs[1:] + [cache.output], gy, []
            for i in range(len(model.layers) - 1, -1, -1):
                layer, out = model.layers[i], outputs[i]
                if layer.activation == "relu":
                    gz = (out > 0.0).astype(np.float64)
                    gz *= g
                elif layer.activation == "tanh":
                    gz = (1.0 - out * out) * g
                else:
                    gz = g
                grads[:0] = [(gz.T @ cache.inputs[i]).ravel(), gz.sum(axis=0)]
                g = gz @ layer.weight
            return np.concatenate(grads), g

        rng = np.random.default_rng(9)
        model = numerics.init_mlp([5, 8, 8, 3], [act] * 3, rng)
        n = 1 if single else 16
        x = rng.normal(size=(n, 5))
        gy = rng.normal(size=(n, 3))
        gy[..., 0] = -0.0
        gy_before = gy.copy()
        _, cache = numerics.forward(model, x)
        grad, gx = numerics.backward(model, cache, gy)
        assert gy.tobytes() == gy_before.tobytes()
        want_grad, want_gx = reference(model, cache, gy)
        assert grad.tobytes() == want_grad.tobytes()
        assert gx.tobytes() == want_gx.tobytes()

    def test_forward_writes_its_last_layer_into_a_given_slice(self):
        rng = np.random.default_rng(10)
        model = numerics.init_mlp([4, 16, 16, 3], ["relu", "tanh", "identity"], rng)
        x = rng.normal(size=(40, 4))
        want, _ = numerics.forward(model, x)
        buf = np.full((50, 3), 7.0)
        got, cache = numerics.forward(model, x, out=buf[5:45])
        assert got.base is buf and cache.output is got
        assert buf[5:45].tobytes() == want.tobytes()
        assert (buf[:5] == 7.0).all() and (buf[45:] == 7.0).all()

    def test_cache_from_other_model_rejected(self):
        rng = np.random.default_rng(3)
        m1 = numerics.init_mlp([2, 3, 1], ["relu", "identity"], rng)
        m2 = numerics.init_mlp([2, 3, 1], ["relu", "identity"], rng)
        _, cache = numerics.forward(m1, np.zeros((1, 2)))
        with pytest.raises(ContractViolationError):
            numerics.backward(m2, cache, np.zeros((1, 1)))

    def test_dimension_mismatch_rejected(self):
        rng = np.random.default_rng(5)
        model = numerics.init_mlp([3, 2], ["identity"], rng)
        with pytest.raises(RejectedInputError):
            numerics.forward(model, np.zeros((1, 4)))


class TestL2Normalize:
    def test_unit_norm_output(self):
        rng = np.random.default_rng(0)
        v = rng.normal(size=(16, 5))
        u, _ = numerics.l2_normalize_with_grad(v)
        np.testing.assert_allclose(np.linalg.norm(u, axis=1), 1.0, atol=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            v = rng.normal(size=(1, 4)) * rng.uniform(0.1, 10.0)
            g_out = rng.normal(size=(1, 4))
            _, back = numerics.l2_normalize_with_grad(v)
            gv = back(g_out)
            h = 1e-7
            for i in range(4):
                vp, vm = v.copy(), v.copy()
                vp[0, i] += h
                vm[0, i] -= h
                up, _ = numerics.l2_normalize_with_grad(vp)
                um, _ = numerics.l2_normalize_with_grad(vm)
                fd = np.sum((up - um) * g_out) / (2 * h)
                assert abs(fd - gv[0, i]) < 1e-5 * max(1.0, abs(fd))

    def test_below_floor_uses_identity_over_eps(self):
        v = np.zeros((1, 3))
        u, back = numerics.l2_normalize_with_grad(v)
        np.testing.assert_array_equal(u, 0.0)
        g = np.array([[1.0, 0.0, 0.0]])
        np.testing.assert_allclose(back(g), g / 1e-8)

    def test_gradient_orthogonal_to_output_above_floor(self):
        rng = np.random.default_rng(2)
        v = rng.normal(size=(8, 3)) + 0.5
        u, back = numerics.l2_normalize_with_grad(v)
        gv = back(rng.normal(size=(8, 3)))
        # moving along v cannot change v/||v||
        np.testing.assert_allclose(np.sum(gv * v, axis=1), 0.0, atol=1e-12)


class TestAdam:
    def test_minimizes_quadratic(self):
        p = np.array([5.0, -3.0])
        state = numerics.AdamState.for_params(p, learning_rate=0.1)
        for _ in range(500):
            p = numerics.adam_step(state, p, 2.0 * p)
        assert np.all(np.abs(p) < 1e-3)

    def test_first_step_size_is_learning_rate(self):
        p = np.array([1.0])
        state = numerics.AdamState.for_params(p, learning_rate=0.01)
        out = numerics.adam_step(state, p, np.array([123.0]))
        # bias correction makes the first update ~lr * sign(g)
        np.testing.assert_allclose(out, 1.0 - 0.01, atol=1e-6)

    def test_nonfinite_gradient_raises_with_index(self):
        p = np.zeros(5)
        state = numerics.AdamState.for_params(p)
        with pytest.raises(TrainingDivergenceError, match="index 3"):
            numerics.adam_step(state, p, np.array([0.0, 0.0, 0.0, np.inf, np.nan]))
        assert state.step_count == 0 and (p == 0.0).all()

    def test_length_mismatch_rejected(self):
        # a shorter gradient would broadcast into the moments without the check
        p = np.zeros(2)
        state = numerics.AdamState.for_params(p)
        for grad in (np.zeros(1), np.zeros(3), np.zeros((2, 1))):
            with pytest.raises(RejectedInputError):
                numerics.adam_step(state, p, grad)
        with pytest.raises(RejectedInputError):
            numerics.adam_step(numerics.AdamState.for_params(np.zeros(3)), p, np.zeros(2))
        assert state.step_count == 0


class TestInPlaceAdam:
    def test_bitwise_equal_to_the_out_of_place_formula(self):
        rng = np.random.default_rng(0)
        params = rng.normal(size=58)
        state = numerics.AdamState.for_params(params, learning_rate=3e-3)
        ref = params.copy()
        m, v = np.zeros_like(params), np.zeros_like(params)
        b1, b2, eps = numerics.ADAM_BETA1, numerics.ADAM_BETA2, numerics.ADAM_EPS
        lr = state.learning_rate
        for t in range(1, 30):
            g = rng.normal(size=params.size) * 10.0 ** rng.integers(-6, 3, size=params.size)
            assert numerics.adam_step(state, params, g) is params
            m = b1 * m + (1.0 - b1) * g
            v = b2 * v + (1.0 - b2) * g * g
            ref = ref - lr * (m / (1.0 - b1**t)) / (np.sqrt(v / (1.0 - b2**t)) + eps)
            assert params.tobytes() == ref.tobytes()

    def test_a_step_allocates_less_than_one_parameter_array(self):
        # the out-of-place formula held two temporaries of the parameters' size
        params = np.random.default_rng(0).normal(size=100_000)
        state = numerics.AdamState.for_params(params)
        grad = np.random.default_rng(1).normal(size=params.size)
        tracemalloc.start()
        try:
            numerics.adam_step(state, params, grad)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < params.nbytes

    def test_state_built_from_moments_gets_its_scratch(self):
        m, v = np.zeros(3), np.zeros(3)
        state = numerics.AdamState(m, v, learning_rate=0.1)
        p = np.ones(3)
        numerics.adam_step(state, p, np.ones(3))
        assert state.first_moment is m and state.second_moment is v
        np.testing.assert_allclose(p, 0.9, atol=1e-6)

    def test_read_only_parameters_rejected_before_any_state_changes(self):
        p = np.zeros(3)
        p.setflags(write=False)
        state = numerics.AdamState.for_params(p)
        with pytest.raises(ContractViolationError):
            numerics.adam_step(state, p, np.ones(3))
        assert state.step_count == 0
        np.testing.assert_array_equal(state.first_moment, 0.0)


@pytest.mark.parametrize("preset, expected", [(None, "1"), ("3", "3")])
def test_import_sets_one_openblas_thread_unless_preset(preset, expected):
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    code = "import bprlab, os; print(os.environ['OPENBLAS_NUM_THREADS'])"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    assert done.stdout.strip() == expected


class TestJacobiEigenvalues:
    def test_matches_lapack_on_random_symmetric(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            d = int(rng.integers(1, 17))
            m = rng.normal(size=(d, d))
            m = 0.5 * (m + m.T)
            mine = numerics.symmetric_eigenvalues(m)
            ref = np.sort(np.linalg.eigvals(m).real)[::-1]
            np.testing.assert_allclose(mine, ref, atol=1e-10)

    def test_trace_and_frobenius_preserved(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            d = int(rng.integers(2, 10))
            m = rng.normal(size=(d, d)) * 10
            m = m + m.T
            eigs = numerics.symmetric_eigenvalues(m)
            assert abs(eigs.sum() - np.trace(m)) < 1e-9 * max(1.0, abs(np.trace(m)))
            assert abs(np.sum(eigs**2) - np.sum(m * m)) < 1e-8 * max(1.0, np.sum(m * m))

    def test_descending_order(self):
        rng = np.random.default_rng(2)
        m = rng.normal(size=(6, 6))
        m = m + m.T
        eigs = numerics.symmetric_eigenvalues(m)
        assert np.all(np.diff(eigs) <= 0)

    def test_diagonal_matrix_exact(self):
        d = np.diag([3.0, -1.0, 2.0])
        np.testing.assert_array_equal(numerics.symmetric_eigenvalues(d), [3.0, 2.0, -1.0])

    def test_asymmetric_rejected(self):
        m = np.array([[1.0, 2.0], [0.0, 1.0]])
        with pytest.raises(RejectedInputError):
            numerics.symmetric_eigenvalues(m)

    def test_huge_scale_spread(self):
        m = np.diag([1e12, 1e-12, 1.0]) + 1e-14
        m = 0.5 * (m + m.T)
        eigs = numerics.symmetric_eigenvalues(m)
        ref = np.sort(np.linalg.eigvals(m).real)[::-1]
        np.testing.assert_allclose(eigs, ref, rtol=1e-10, atol=1e-12)


class TestCheckpoint:
    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        model = random_model(rng)
        path = str(tmp_path / "m.ckpt")
        numerics.save_checkpoint(model, path)
        loaded = numerics.load_checkpoint(path)
        assert len(loaded.layers) == len(model.layers)
        for a, b in zip(model.layers, loaded.layers):
            np.testing.assert_array_equal(a.weight, b.weight)
            np.testing.assert_array_equal(a.bias, b.bias)
            assert a.activation == b.activation

    def test_bytes_round_trip_is_identity(self):
        rng = np.random.default_rng(1)
        model = random_model(rng)
        blob = numerics.checkpoint_bytes(model)
        again = numerics.checkpoint_bytes(numerics.model_from_bytes(blob))
        assert blob == again

    def test_magic_prefix(self):
        rng = np.random.default_rng(2)
        blob = numerics.checkpoint_bytes(random_model(rng))
        assert blob.startswith(numerics.CHECKPOINT_MAGIC)

    def test_bad_magic_rejected(self):
        with pytest.raises(RejectedInputError):
            numerics.model_from_bytes(b"NOTMAGIC" + b"\x00" * 16)

    # byte 20 is the first layer's activation tag: magic (8), layer count (4),
    # rows (4), cols (4)
    @pytest.mark.parametrize("corrupt", [
        lambda blob: blob[:-3],
        lambda blob: blob[:10],
        lambda blob: blob[:20] + b"\x07" + blob[21:],
        lambda blob: blob + b"\x00",
    ], ids=["truncated-body", "short-header", "unknown-activation-tag", "trailing-bytes"])
    def test_corrupt_checkpoint_rejected(self, corrupt):
        blob = numerics.checkpoint_bytes(random_model(np.random.default_rng(3)))
        with pytest.raises(RejectedInputError):
            numerics.model_from_bytes(corrupt(blob))

    @pytest.mark.parametrize("where, value", [
        ("weight", np.nan), ("bias", np.inf), ("weight", -np.inf)])
    def test_non_finite_parameter_rejected_with_its_layer(self, where, value):
        model = numerics.init_mlp([3, 4, 2], ["relu", "identity"], np.random.default_rng(4))
        getattr(model.layers[1], where).flat[0] = value
        with pytest.raises(RejectedInputError, match="layer 1 has non-finite"):
            numerics.model_from_bytes(numerics.checkpoint_bytes(model))

    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 50), truncate=st.booleans(), where=st.floats(0.0, 1.0),
           byte=st.integers(0, 255))
    # byte 181 of this blob is the high byte of a layer's rows: zeroing it gives a
    # rows x cols header past ssize_t, which must not reach np.frombuffer
    @example(seed=0, truncate=False, where=0.5546875, byte=0)
    def test_truncated_or_mutated_checkpoint_loads_exactly_or_is_rejected(
            self, seed, truncate, where, byte):
        blob = numerics.checkpoint_bytes(random_model(np.random.default_rng(seed)))
        i = min(int(where * len(blob)), len(blob) - 1)
        mutated = blob[:i] if truncate else blob[:i] + bytes([byte]) + blob[i + 1:]
        try:
            model = numerics.model_from_bytes(mutated)
        except RejectedInputError:
            return
        assert numerics.checkpoint_bytes(model) == mutated


class TestModel:
    def test_flat_round_trip(self):
        rng = np.random.default_rng(0)
        model = random_model(rng)
        flat = model.flat_parameters()
        other = model.copy()
        other.set_flat_parameters(np.zeros_like(flat))
        other.set_flat_parameters(flat)
        np.testing.assert_array_equal(other.flat_parameters(), flat)

    def test_copy_is_independent(self):
        rng = np.random.default_rng(1)
        model = random_model(rng)
        clone = model.copy()
        clone.layers[0].weight += 1.0
        assert not np.array_equal(clone.layers[0].weight, model.layers[0].weight)

    def test_parameters_are_views_of_the_flat_buffer(self):
        model = random_model(np.random.default_rng(2))
        assert model.flat.flags.c_contiguous and model.flat.dtype == np.float64
        np.testing.assert_array_equal(
            model.flat, np.concatenate([p.ravel() for p in model.parameters()]))
        for p in model.parameters():
            assert np.shares_memory(p, model.flat)
        model.flat[...] = np.arange(model.flat.size)
        np.testing.assert_array_equal(model.layers[0].weight.ravel(),
                                      np.arange(model.layers[0].weight.size))

    def test_copy_shares_no_memory(self):
        model = random_model(np.random.default_rng(3))
        clone = model.copy()
        np.testing.assert_array_equal(clone.flat, model.flat)
        for a in (clone.flat, *clone.parameters()):
            for b in (model.flat, *model.parameters()):
                assert not np.shares_memory(a, b)

    def test_share_buffer_keeps_values_and_joins_the_buffers(self):
        rng = np.random.default_rng(4)
        m1, m2 = random_model(rng), random_model(rng)
        before = [m1.flat_parameters(), m2.flat_parameters()]
        joint = numerics.share_buffer([m1, m2])
        np.testing.assert_array_equal(joint, np.concatenate(before))
        joint += 1.0
        np.testing.assert_array_equal(m1.flat, before[0] + 1.0)
        np.testing.assert_array_equal(m2.parameters()[-1], m2.flat[-m2.output_dim:])
        assert np.shares_memory(m2.layers[0].weight, joint)

    def test_mismatched_layer_dims_rejected(self):
        with pytest.raises(RejectedInputError):
            numerics.MlpModel([
                numerics.Layer(np.zeros((3, 2)), np.zeros(3), "relu"),
                numerics.Layer(np.zeros((1, 4)), np.zeros(1), "identity"),
            ])
