"""Depth-2 baseline training on the hard target, with analytic gradients.

The only trained architecture is the two-layer one, so the gradients of the
squared loss are written out by hand (kept honest by a standing
finite-difference test) instead of pulling in an autodiff stack.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bits import _positive, _seed, _sizes
from .instance import InstanceSpec, sample_a4d
from .networks import RELU, Activation, DenseNetwork, activation_by_tag

__all__ = [
    "TrainConfig",
    "TrainResult",
    "Depth2Params",
    "loss_and_gradients",
    "train_depth2",
    "estimate_population_loss",
    "constant_network",
]


@dataclass(frozen=True)
class TrainConfig:
    width: int
    activation: str = "relu"
    epochs: int = 20
    batch_size: int = 64
    learning_rate: float = 1e-2
    optimizer: str = "adam"
    weight_clip: float | None = None
    samples_per_epoch: int = 2048
    seed: int = 0

    def __post_init__(self):
        counts = dict(width=self.width, epochs=self.epochs, batch_size=self.batch_size,
                      samples_per_epoch=self.samples_per_epoch)
        for name, value in zip(counts, _sizes(**counts)):
            object.__setattr__(self, name, value)
        clip = {} if self.weight_clip is None else {"weight_clip": self.weight_clip}
        _positive(learning_rate=self.learning_rate, **clip)
        object.__setattr__(self, "seed", _seed(self.seed))
        _trainable(self.activation)
        if self.optimizer not in _OPTIMIZERS:
            raise ValueError(f"optimizer must be one of {sorted(_OPTIMIZERS)}")


@dataclass
class Depth2Params:
    """Mutable parameter block for the two-layer net out = v . act(W x + b) + b0.

    All four are float arrays; ``b0`` has shape (1,), so ``arrays`` lists
    every parameter, and a gradient block has the same layout."""

    W: np.ndarray
    b: np.ndarray
    v: np.ndarray
    b0: np.ndarray

    @property
    def arrays(self) -> tuple[np.ndarray, ...]:
        return (self.W, self.b, self.v, self.b0)

    @classmethod
    def init(cls, input_dim: int, width: int, rng: np.random.Generator) -> "Depth2Params":
        scale = 1.0 / np.sqrt(input_dim)
        return cls(
            W=rng.normal(0.0, scale, size=(width, input_dim)),
            b=rng.normal(0.0, 0.1, size=width),
            v=rng.normal(0.0, 1.0 / np.sqrt(width), size=width),
            b0=np.zeros(1),
        )

    def to_network(self, activation: Activation) -> DenseNetwork:
        return DenseNetwork(
            self.W.shape[1],
            ((self.W.copy(), self.b.copy()),),
            self.v.copy(),
            float(self.b0[0]),
            activation,
        )


def _trainable(tag: str) -> Activation:
    """The built-in activation named ``tag``; ValueError unless it carries
    the derivative the trainer needs."""
    act = activation_by_tag(tag)
    if act.derivative is None:
        raise ValueError(f"activation {tag!r} is not trainable (it has no derivative)")
    return act


def loss_and_gradients(
    params: Depth2Params, X: np.ndarray, y: np.ndarray, activation: str
) -> tuple[float, Depth2Params]:
    """Mean squared loss on the batch and its gradient block."""
    act = _trainable(activation)
    z = X @ params.W.T + params.b
    h, hg = act(z), act.derivative(z)
    out = h @ params.v + params.b0
    resid = out - y
    n = X.shape[0]
    dout = 2.0 * resid / n
    g_v = h.T @ dout
    g_b0 = dout.sum(keepdims=True)
    back = (dout[:, None] * params.v[None, :]) * hg
    g_W = back.T @ X
    g_b = back.sum(axis=0)
    loss = float(np.mean(resid**2))
    return loss, Depth2Params(W=g_W, b=g_b, v=g_v, b0=g_b0)


class _SGD:
    def __init__(self, params: Depth2Params, lr: float):
        self.lr = lr

    def step(self, params: Depth2Params, grads: Depth2Params) -> None:
        for p, g in zip(params.arrays, grads.arrays):
            p -= self.lr * g


class _Adam:
    def __init__(self, params: Depth2Params, lr: float, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr, self.b1, self.b2, self.eps = lr, beta1, beta2, eps
        self.t = 0
        self.m = [np.zeros_like(p) for p in params.arrays]
        self.v = [np.zeros_like(p) for p in params.arrays]

    def step(self, params: Depth2Params, grads: Depth2Params) -> None:
        self.t += 1
        for i, (p, g) in enumerate(zip(params.arrays, grads.arrays)):
            self.m[i] = self.b1 * self.m[i] + (1 - self.b1) * g
            self.v[i] = self.b2 * self.v[i] + (1 - self.b2) * g * g
            mh = self.m[i] / (1 - self.b1**self.t)
            vh = self.v[i] / (1 - self.b2**self.t)
            p -= self.lr * mh / (np.sqrt(vh) + self.eps)


_OPTIMIZERS = {"sgd": _SGD, "adam": _Adam}


@dataclass
class TrainResult:
    network: DenseNetwork
    history: list[float] = field(default_factory=list)
    best_loss: float = float("inf")
    diverged: bool = False


def train_depth2(spec: InstanceSpec, cfg: TrainConfig) -> TrainResult:
    """Minibatch gradient descent on squared loss against the target.

    Fresh support samples are drawn per epoch from seeds derived off
    cfg.seed, so identical configurations reproduce identical loss curves.
    A NaN loss is reported as divergence, not raised.
    """
    activation = activation_by_tag(cfg.activation)
    rng = np.random.default_rng([cfg.seed, 2])
    params = Depth2Params.init(4 * spec.d, cfg.width, rng)
    opt = _OPTIMIZERS[cfg.optimizer](params, cfg.learning_rate)
    result = TrainResult(network=params.to_network(activation))
    # divergence is detected and reported below, so numeric overflow along
    # the way is expected rather than worth warning about
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(cfg.epochs):
            batch = sample_a4d(
                spec, cfg.samples_per_epoch, seed=int(cfg.seed + 7919 * (epoch + 1))
            )
            X = batch.points
            y = batch.labels.astype(np.float64)
            order = rng.permutation(len(batch))
            epoch_losses = []
            for start in range(0, len(batch), cfg.batch_size):
                idx = order[start : start + cfg.batch_size]
                loss, g = loss_and_gradients(params, X[idx], y[idx], cfg.activation)
                if not np.isfinite(loss):
                    result.diverged = True
                    break
                epoch_losses.append(loss)
                opt.step(params, g)
                if cfg.weight_clip is not None:
                    for p in params.arrays:
                        np.clip(p, -cfg.weight_clip, cfg.weight_clip, out=p)
            if result.diverged:
                result.history.append(float("nan"))
                break
            epoch_loss = float(np.mean(epoch_losses))
            result.history.append(epoch_loss)
            result.best_loss = min(result.best_loss, epoch_loss)
    result.network = params.to_network(activation)
    return result


def estimate_population_loss(
    net: DenseNetwork, spec: InstanceSpec, n: int, seed: int
) -> tuple[float, float]:
    """Monte-Carlo mean of (net - target)^2 over the support, with its
    standard error; an empty sample is an error."""
    if net.input_dim != 4 * spec.d:
        raise ValueError(f"network input dim {net.input_dim} != {4 * spec.d}")
    batch = sample_a4d(spec, n, seed)
    preds = net.evaluate_batch(batch.points)
    sq = (preds - batch.labels.astype(np.float64)) ** 2
    mean = float(sq.mean())
    stderr = float(sq.std(ddof=1) / np.sqrt(sq.size)) if sq.size > 1 else float("inf")
    return mean, stderr


def constant_network(input_dim: int, value: float) -> DenseNetwork:
    """Width-1 ReLU network computing the constant ``value``."""
    return DenseNetwork(
        input_dim,
        ((np.zeros((1, input_dim)), np.zeros(1)),),
        np.zeros(1),
        float(value),
        RELU,
    )
