"""Small deterministic MLP kernel: forward/backward, Adam, l2 normalization,
symmetric eigenvalues and the binary checkpoint format.

Everything is float64 and single-threaded: importing bprlab sets OpenBLAS to
one thread unless OPENBLAS_NUM_THREADS is already set. Shapes follow the numpy
row convention: a batch is (n, dim), a weight is (out_dim, in_dim). A model's
parameters live in one contiguous vector, backward returns their gradient as
one vector in the same order, and Adam updates the parameters in place. The
kernel trusts its callers with finite inputs: data is checked where it enters
(datasets, checkpoints, configs), and trainers report a non-finite computed
value as a divergence.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import ContractViolationError, RejectedInputError, TrainingDivergenceError

ACTIVATIONS = ("relu", "tanh", "identity")
_ACT_TAG = {"relu": 0, "tanh": 1, "identity": 2}
_TAG_ACT = {v: k for k, v in _ACT_TAG.items()}

CHECKPOINT_MAGIC = b"BPRCKPT1"

ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8  # Kingma & Ba 2014, arXiv 1412.6980
L2_FLOOR = 1e-8  # l2_normalize_with_grad divides by at least this norm


@dataclass
class Layer:
    weight: np.ndarray  # (out, in)
    bias: np.ndarray  # (out,)
    activation: str

    def __post_init__(self):
        self.weight = np.asarray(self.weight, dtype=np.float64)
        self.bias = np.asarray(self.bias, dtype=np.float64)
        if self.weight.ndim != 2 or self.bias.shape != (self.weight.shape[0],):
            raise RejectedInputError("layer weight/bias shapes inconsistent")
        if 0 in self.weight.shape:
            raise RejectedInputError(f"a layer of shape {self.weight.shape} has a zero dimension")
        if self.activation not in ACTIVATIONS:
            raise RejectedInputError(f"unknown activation {self.activation!r}")


class MlpModel:
    """Plain fully-connected net with a fixed per-layer activation.

    All parameters live in one contiguous float64 vector, `flat`, in
    parameters() order; each layer's weight and bias are views into it."""

    def __init__(self, layers: list[Layer]):
        if not layers:
            raise RejectedInputError("model needs at least one layer")
        for prev, nxt in zip(layers, layers[1:]):
            if nxt.weight.shape[1] != prev.weight.shape[0]:
                raise RejectedInputError("consecutive layer dimensions do not chain")
        self.layers = layers
        self._bind(np.concatenate([p.ravel() for p in self.parameters()]))

    def _bind(self, flat: np.ndarray) -> None:
        """Make `flat`, which already holds the parameters in parameters() order,
        the model's buffer, and every weight and bias a view into it."""
        for layer, (weight, bias) in zip(self.layers, _layer_views(self.layers, flat)):
            layer.weight, layer.bias = weight, bias
        self.flat = flat

    @property
    def input_dim(self) -> int:
        return self.layers[0].weight.shape[1]

    @property
    def output_dim(self) -> int:
        return self.layers[-1].weight.shape[0]

    def parameters(self) -> list[np.ndarray]:
        out = []
        for layer in self.layers:
            out.append(layer.weight)
            out.append(layer.bias)
        return out

    def copy(self) -> "MlpModel":
        """A model with its own buffer: it shares no memory with this one."""
        return MlpModel([Layer(l.weight, l.bias, l.activation) for l in self.layers])

    def flat_parameters(self) -> np.ndarray:
        return self.flat.copy()

    def set_flat_parameters(self, flat: np.ndarray) -> None:
        flat = np.asarray(flat, dtype=np.float64)
        if flat.shape != self.flat.shape:
            raise RejectedInputError("flat parameter vector length mismatch")
        check_writable([self.flat])
        self.flat[...] = flat


def _layer_views(layers: list[Layer], flat: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Each layer's (weight, bias) as views into `flat`, in parameters() order: the
    layout of a model's parameter buffer and of its gradient."""
    views, i = [], 0
    for layer in layers:
        rows, cols = layer.weight.shape
        w_end = i + rows * cols
        views.append((flat[i:w_end].reshape(rows, cols), flat[w_end : w_end + rows]))
        i = w_end + rows
    return views


def share_buffer(models: list[MlpModel]) -> np.ndarray:
    """Move the models' parameters into one new contiguous vector, in order, and
    return it. Each model's `flat` becomes a slice of it, so one Adam state and
    one in-place update cover all of them."""
    check_writable([m.flat for m in models])
    joint = np.concatenate([m.flat for m in models])
    i = 0
    for m in models:
        m._bind(joint[i : i + m.flat.size])
        i += m.flat.size
    return joint


def check_writable(arrays: list[np.ndarray]) -> None:
    for p in arrays:
        if not p.flags.writeable:
            raise ContractViolationError("parameters are read-only: the model is frozen")


def init_mlp(dims: list[int], activations: list[str], rng: np.random.Generator) -> MlpModel:
    """Uniform +-sqrt(6/(fan_in+fan_out)) weights, zero biases."""
    if len(activations) != len(dims) - 1:
        raise RejectedInputError("need one activation per layer")
    layers = []
    for fan_in, fan_out, act in zip(dims, dims[1:], activations):
        lim = np.sqrt(6.0 / (fan_in + fan_out))
        w = rng.uniform(-lim, lim, size=(fan_out, fan_in))
        layers.append(Layer(w, np.zeros(fan_out), act))
    return MlpModel(layers)


def _activate_in_place(z: np.ndarray, act: str) -> None:
    if act == "relu":
        np.maximum(z, 0.0, out=z)
    elif act == "tanh":
        np.tanh(z, out=z)


@dataclass
class ForwardCache:
    model_id: int
    inputs: list[np.ndarray] = field(default_factory=list)  # per-layer inputs (n, in)
    output: np.ndarray | None = None  # the last layer's activation (n, out)


def forward(model: MlpModel, x: np.ndarray,
            out: np.ndarray | None = None) -> tuple[np.ndarray, ForwardCache]:
    """(output, cache) of the model on an (n, input_dim) batch. The last layer
    writes into `out` when given, an (n, output_dim) float64 array such as a
    slice of a larger result, and the output is then `out` itself."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != model.input_dim:
        raise RejectedInputError(f"input of shape {x.shape} is not an (n, {model.input_dim}) batch")
    cache = ForwardCache(model_id=id(model))
    h = x
    last = len(model.layers) - 1
    for i, layer in enumerate(model.layers):
        cache.inputs.append(h)
        h = np.matmul(h, layer.weight.T, out=out if i == last else None)
        h += layer.bias
        _activate_in_place(h, layer.activation)
    cache.output = h
    return h, cache


def backward(
    model: MlpModel, cache: ForwardCache, output_gradient: np.ndarray, input_grad: bool = True,
    param_grads: bool = True, out: np.ndarray | None = None,
) -> tuple[np.ndarray | None, np.ndarray | None]:
    """Returns (the parameter gradient as one vector in model.flat order, the
    gradient w.r.t. the input); with param_grads=False or input_grad=False that
    gradient is not computed and is None. The parameter gradient goes into `out`
    when given, such as this model's slice of a share_buffer() gradient."""
    if cache.model_id != id(model) or len(cache.inputs) != len(model.layers):
        raise ContractViolationError("cache does not match this model/forward call")
    gy = np.asarray(output_gradient, dtype=np.float64)
    if gy.shape != (cache.inputs[0].shape[0], model.output_dim):
        raise RejectedInputError(f"output gradient of shape {gy.shape} is not an "
                                 f"({cache.inputs[0].shape[0]}, {model.output_dim}) batch")
    grad = None
    if param_grads:
        grad = np.empty(model.flat.size) if out is None else out
        views = _layer_views(model.layers, grad)
    # each layer's activation output; relu(z) > 0 exactly where z > 0
    outputs = cache.inputs[1:] + [cache.output]
    g = gy
    top = len(model.layers) - 1
    for i in range(top, -1, -1):
        layer, out = model.layers[i], outputs[i]
        # gz = g * activation'(z); below the top layer g is this call's own array,
        # so the relu mask goes into it in place, never into output_gradient
        if layer.activation == "relu":
            gz = np.multiply(g, out > 0.0, out=g if i < top else None)
        elif layer.activation == "tanh":
            gz = out * out
            np.subtract(1.0, gz, out=gz)
            gz *= g
        else:
            gz = g
        if param_grads:
            np.matmul(gz.T, cache.inputs[i], out=views[i][0])
            gz.sum(axis=0, out=views[i][1])
        if i == 0 and not input_grad:
            return grad, None
        if layer.weight.shape[0] == 1:
            # an outer product, which numpy's k=1 matmul computes slowly; the
            # matmul's sum turns a -0.0 product into +0.0, and so does + 0.0
            g = gz * layer.weight
            g += 0.0
        else:
            g = gz @ layer.weight
    return grad, g


def l2_normalize_with_grad(v: np.ndarray):
    """Row-wise v / max(||v||, L2_FLOOR) of an (n, d) batch. Returns (unit,
    backprop) where backprop maps a gradient w.r.t. the output to one w.r.t. v."""
    v = np.asarray(v, dtype=np.float64)
    if v.ndim != 2:
        raise RejectedInputError(f"input of shape {v.shape} is not an (n, d) batch")
    norms = np.linalg.norm(v, axis=1, keepdims=True)
    denom = np.maximum(norms, L2_FLOOR)
    u = v / denom
    floored = norms[:, 0] <= L2_FLOOR

    def backprop(gu: np.ndarray) -> np.ndarray:
        g = np.asarray(gu, dtype=np.float64)
        # Jacobian (I - u u^T)/||v|| above the floor, I/L2_FLOOR below it.
        gv = (g - u * np.sum(u * g, axis=1, keepdims=True)) / denom
        if np.any(floored):
            gv[floored] = g[floored] / L2_FLOOR
        return gv

    return u, backprop


@dataclass
class AdamState:
    first_moment: np.ndarray
    second_moment: np.ndarray
    step_count: int = 0
    learning_rate: float = 3e-4
    # two scratch arrays shaped like the moments, so a step allocates nothing
    _scratch: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self._scratch = (np.empty_like(self.first_moment), np.empty_like(self.first_moment))

    @classmethod
    def for_params(cls, params: np.ndarray, learning_rate: float = 3e-4):
        return cls(np.zeros_like(params), np.zeros_like(params), learning_rate=learning_rate)


def adam_step(state: AdamState, params: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """Bias-corrected Adam, in place: mutates state and params (a model's flat
    buffer, or any one parameter array) and returns params."""
    if grad.shape != params.shape or state.first_moment.shape != params.shape:
        raise RejectedInputError("params/grad/state shape mismatch")
    if not np.isfinite(grad).all():
        i = int(np.flatnonzero(~np.isfinite(grad))[0])
        raise TrainingDivergenceError(f"non-finite gradient at index {i}")
    check_writable([params])
    state.step_count += 1
    t = state.step_count
    m, v = state.first_moment, state.second_moment
    step, denom = state._scratch
    m *= ADAM_BETA1
    np.multiply(1.0 - ADAM_BETA1, grad, out=step)
    m += step
    v *= ADAM_BETA2
    np.multiply(1.0 - ADAM_BETA2, grad, out=step)
    step *= grad
    v += step
    # params -= lr * (m / (1 - b1^t)) / (sqrt(v / (1 - b2^t)) + eps), in that order of operations
    np.divide(m, 1.0 - ADAM_BETA1**t, out=step)
    step *= state.learning_rate
    np.divide(v, 1.0 - ADAM_BETA2**t, out=denom)
    np.sqrt(denom, out=denom)
    denom += ADAM_EPS
    step /= denom
    params -= step
    return params


def symmetric_eigenvalues(m: np.ndarray) -> np.ndarray:
    """Eigenvalues of a symmetric matrix (LAPACK via eigvalsh), descending."""
    a = np.asarray(m, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise RejectedInputError("matrix must be square")
    if not np.all(np.isfinite(a)):
        raise RejectedInputError("non-finite matrix entries")
    if np.max(np.abs(a - a.T)) > 1e-10:
        raise RejectedInputError("matrix is not symmetric within 1e-10")
    return np.linalg.eigvalsh(a)[::-1]


def save_checkpoint(model: MlpModel, path: str) -> None:
    """Versioned binary: magic, layer count, per layer (rows, cols, act tag,
    weights row-major, bias), all little-endian."""
    with open(path, "wb") as fh:
        fh.write(checkpoint_bytes(model))


def checkpoint_bytes(model: MlpModel) -> bytes:
    chunks = [CHECKPOINT_MAGIC, struct.pack("<I", len(model.layers))]
    for layer in model.layers:
        rows, cols = layer.weight.shape
        chunks.append(struct.pack("<IIB", rows, cols, _ACT_TAG[layer.activation]))
        chunks.append(layer.weight.astype("<f8").tobytes())
        chunks.append(layer.bias.astype("<f8").tobytes())
    return b"".join(chunks)


def load_checkpoint(path: str) -> MlpModel:
    with open(path, "rb") as fh:
        data = fh.read()
    return model_from_bytes(data)


def model_from_bytes(data: bytes) -> MlpModel:
    if data[:8] != CHECKPOINT_MAGIC:
        raise RejectedInputError("bad checkpoint magic")
    try:
        (n_layers,) = struct.unpack_from("<I", data, 8)
        offset = 12
        layers = []
        for _ in range(n_layers):
            rows, cols, tag = struct.unpack_from("<IIB", data, offset)
            offset += 9
            if (rows * cols + rows) * 8 > len(data) - offset:
                raise RejectedInputError(f"truncated checkpoint: a {rows}x{cols} layer runs past the end")
            w = np.frombuffer(data, dtype="<f8", count=rows * cols, offset=offset).reshape(rows, cols)
            offset += rows * cols * 8
            b = np.frombuffer(data, dtype="<f8", count=rows, offset=offset)
            offset += rows * 8
            if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
                raise RejectedInputError(f"checkpoint layer {len(layers)} has non-finite "
                                         "weights or biases")
            layers.append(Layer(w, b, _TAG_ACT.get(tag, f"tag {tag}")))
    except (struct.error, ValueError) as exc:  # the bytes end before the layers do
        raise RejectedInputError(f"truncated checkpoint: {exc}") from None
    if offset != len(data):
        raise RejectedInputError(f"{len(data) - offset} trailing bytes after the checkpoint")
    return MlpModel(layers)
