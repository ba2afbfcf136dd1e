"""Encoder pretraining on normalized action prediction, and the frozen-encoder
artifact consumed by the downstream agents."""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass

import numpy as np

from . import numerics
from .envs import OfflineDataset, atomic_write, row_blocks
from .errors import (
    ContractViolationError,
    RejectedInputError,
    TrainingDivergenceError,
    UnusableDatasetError,
)

MIN_ACTION_NORM = 1e-6  # a smaller action has no direction to predict; pretraining drops it


@dataclass
class PretrainConfig:
    steps: int = 100_000
    batch_size: int = 256
    seed: int = 0
    repr_dim: int = 64
    learning_rate: float = 3e-4
    encoder_hidden: tuple[int, ...] = (256, 256)
    predictor_hidden: tuple[int, ...] = (256, 256)

    def __post_init__(self):
        for name, low in (("steps", 0), ("seed", 0), ("batch_size", 1), ("repr_dim", 1)):
            if getattr(self, name) < low:
                raise RejectedInputError(f"{name} must be >= {low}, not {getattr(self, name)}")
        if any(h < 1 for h in (*self.encoder_hidden, *self.predictor_hidden)):
            raise RejectedInputError("every hidden width must be >= 1")
        check_learning_rate("learning_rate", self.learning_rate)


def check_learning_rate(name: str, value: float) -> None:
    if not (np.isfinite(value) and value > 0.0):
        raise RejectedInputError(f"{name} must be finite and > 0, not {value}")


def check_finite(value, what: str) -> None:
    """Raise TrainingDivergenceError unless value, a float or an array that a run
    computed, is finite: inputs are checked where they enter, so a non-finite
    computed value means the run diverged."""
    if not (math.isfinite(value) if isinstance(value, float) else np.isfinite(value).all()):
        raise TrainingDivergenceError(f"non-finite {what}")


class EncoderModel:
    """State encoder. Once frozen its parameters are read-only."""

    def __init__(self, net: numerics.MlpModel, frozen: bool = False):
        self.net = net
        self.frozen = False
        if frozen:
            self.freeze()

    def freeze(self) -> "EncoderModel":
        self.frozen = True
        # the buffer and its views each carry their own write flag
        for p in (self.net.flat, *self.net.parameters()):
            p.setflags(write=False)
        return self

    @property
    def state_dim(self) -> int:
        return self.net.input_dim

    @property
    def repr_dim(self) -> int:
        return self.net.output_dim

    def encode(self, states: np.ndarray) -> np.ndarray:
        """The representation of an (n, state_dim) batch. A batch of more than
        ROW_BLOCK rows runs in near-equal blocks (envs.row_blocks), each writing
        its rows of one output array in place, so the hidden activations it holds
        at once are those of one block; every output byte equals that of a
        one-pass forward."""
        blocks = row_blocks(len(states))
        if len(blocks) < 2:
            return numerics.forward(self.net, states)[0]
        out = np.empty((len(states), self.repr_dim))
        for b in blocks:
            numerics.forward(self.net, states[b], out=out[b])
        return out

    def param_hash(self) -> str:
        return hashlib.sha256(self.net.flat.tobytes()).hexdigest()

    def copy(self, frozen: bool | None = None) -> "EncoderModel":
        return EncoderModel(self.net.copy(), self.frozen if frozen is None else frozen)


def build_action_net(input_dim: int, action_dim: int, hidden: tuple[int, ...],
                     rng: np.random.Generator) -> numerics.MlpModel:
    """ReLU hidden layers and a tanh head, so every output lies in [-1, 1], the
    point mass's action box: the BPR predictor and every continuous policy."""
    dims = [input_dim, *hidden, action_dim]
    acts = ["relu"] * len(hidden) + ["tanh"]
    return numerics.init_mlp(dims, acts, rng)


def build_encoder(state_dim: int, repr_dim: int, hidden: tuple[int, ...],
                  rng: np.random.Generator) -> EncoderModel:
    dims = [state_dim, *hidden, repr_dim]
    acts = ["relu"] * len(hidden) + ["identity"]
    return EncoderModel(numerics.init_mlp(dims, acts, rng))


def bpr_loss(prediction: np.ndarray, action: np.ndarray) -> tuple[float, np.ndarray]:
    """||y_hat - a_hat||^2 with both arguments l2-normalized; the action is a
    constant target, so the gradient only flows through the prediction's
    normalization Jacobian. Takes (n, k) batches; the loss is the per-sample
    mean."""
    y = np.asarray(prediction, dtype=np.float64)
    a = np.asarray(action, dtype=np.float64)
    if y.shape != a.shape or y.ndim != 2:
        raise RejectedInputError(f"prediction and action shapes {y.shape}, {a.shape} are not "
                                 "one (n, k) batch shape")
    norms = np.linalg.norm(a, axis=1)
    if np.any(norms < MIN_ACTION_NORM):
        raise ContractViolationError("action norm below MIN_ACTION_NORM reached the loss")
    a_bar = a / norms[:, None]
    y_bar, back = numerics.l2_normalize_with_grad(y)
    diff = y_bar - a_bar
    per_sample = np.sum(diff * diff, axis=1)
    n = per_sample.shape[0]
    loss = float(per_sample.mean())
    return loss, back(2.0 * diff / n)


def bpr_batch_grads(encoder: EncoderModel, predictor: numerics.MlpModel,
                    states: np.ndarray, actions: np.ndarray):
    """One joint forward/backward of the normalized prediction loss. Returns
    (loss, gradient): one vector of the encoder's then the predictor's parameter
    gradient, the order of share_buffer([encoder.net, predictor])."""
    z, enc_cache = numerics.forward(encoder.net, states)
    y, pred_cache = numerics.forward(predictor, z)
    loss, gy = bpr_loss(y, actions)
    grad = np.empty(encoder.net.flat.size + predictor.flat.size)
    enc_grad, pred_grad = np.split(grad, [encoder.net.flat.size])
    _, gz = numerics.backward(predictor, pred_cache, gy, out=pred_grad)
    numerics.backward(encoder.net, enc_cache, gz, input_grad=False, out=enc_grad)
    return loss, grad


def filter_zero_norm_actions(dataset: OfflineDataset):
    s, a, _, _, _ = dataset.arrays()
    keep = np.linalg.norm(a, axis=1) >= MIN_ACTION_NORM
    return s[keep], a[keep], int(np.sum(~keep))


def pretrain(dataset: OfflineDataset, config: PretrainConfig):
    """Joint minibatch Adam on encoder + predictor; returns the frozen encoder,
    the per-step loss trace, and the (diagnostic) predictor."""
    states, actions, n_dropped = filter_zero_norm_actions(dataset)
    if states.shape[0] == 0:
        raise UnusableDatasetError("all actions below MIN_ACTION_NORM")
    rng = np.random.default_rng(config.seed)
    encoder = build_encoder(dataset.state_dim, config.repr_dim, config.encoder_hidden, rng)
    predictor = build_action_net(config.repr_dim, dataset.action_dim,
                                 config.predictor_hidden, rng)
    # one buffer, one Adam state and one gradient vector for both nets
    params = numerics.share_buffer([encoder.net, predictor])
    adam = numerics.AdamState.for_params(params, learning_rate=config.learning_rate)
    trace = np.zeros(config.steps)
    for step in range(config.steps):
        idx = rng.integers(0, states.shape[0], size=config.batch_size)
        loss, grad = bpr_batch_grads(encoder, predictor, states[idx], actions[idx])
        check_finite(loss, f"pretrain loss at step {step}")
        numerics.adam_step(adam, params, grad)
        trace[step] = loss
    check_finite(params, f"encoder or predictor parameters after {config.steps} pretrain steps")
    encoder.freeze()
    return encoder, trace, predictor, n_dropped


def dataset_hash(dataset: OfflineDataset) -> str:
    h = hashlib.sha256()
    for arr in dataset.arrays():
        h.update(np.ascontiguousarray(arr))  # hashes the buffer in place, no copy
    return h.hexdigest()


def save_encoder(encoder: EncoderModel, path: str, manifest: dict | None = None) -> None:
    atomic_write(path, numerics.checkpoint_bytes(encoder.net))
    if manifest is not None:
        atomic_write(path + ".json", json.dumps(manifest, indent=2, sort_keys=True,
                                                    allow_nan=False) + "\n")


def load_encoder(path: str, frozen: bool = True) -> EncoderModel:
    return EncoderModel(numerics.load_checkpoint(path), frozen=frozen)


def make_manifest(config: PretrainConfig, dataset: OfflineDataset,
                  final_loss: float | None) -> dict:
    return {
        "schema_version": 1,
        "repr_dim": config.repr_dim,
        "state_dim": dataset.state_dim,
        "pretrain_steps": config.steps,
        "seed": config.seed,
        "final_loss": final_loss,
        "dataset_hash": dataset_hash(dataset),
    }
