"""Layered dense network IR: evaluation, affine absorption, and averaging.

A network is a stack of hidden layers (affine map followed by a scalar
activation) and a final affine output neuron.  Depth is the number of
hidden layers plus one, so the networks built here are depth 2 or depth 3.
All transformation helpers return new networks; instances are treated as
immutable after construction.  A layer made by ``_substitute`` keeps its
factors next to its dense weights and is evaluated through them.
"""

from __future__ import annotations

import json
import os
import threading
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .bits import _json_array, _json_object, _sizes

__all__ = [
    "Activation",
    "RELU",
    "THRESHOLD",
    "SIGMOID",
    "DenseNetwork",
    "ThresholdCircuit",
    "absorb_input_map",
    "activation_by_tag",
    "average_ensemble",
    "network_to_json",
    "network_from_json",
]


@dataclass(frozen=True)
class Activation:
    """Scalar activation with the metadata the compilers need.

    ``variation`` is a pair (c, alpha) such that the total variation on any
    interval [a, b] is at most c * (1 + (|a| + |b|)**alpha).  The threshold
    compiler takes activations with a ``lipschitz`` constant; the threshold
    itself has none and needs no compiling.  ``derivative``, where set, is
    the activation's derivative, which the depth-2 trainer needs.
    """

    tag: str
    fn: Callable[[np.ndarray], np.ndarray]
    lipschitz: float | None = None
    variation: tuple[float, float] | None = None
    monotone: bool = False
    derivative: Callable[[np.ndarray], np.ndarray] | None = None

    def __call__(self, z: np.ndarray) -> np.ndarray:
        return self.fn(z)


def _relu(z):
    return np.maximum(z, 0.0)


def _relu_derivative(z):
    return (z > 0).astype(np.float64)


def _threshold(z):
    # unit step firing at 0.5: sigma(z) = 1 iff z >= 0.5
    return np.where(np.asarray(z, dtype=np.float64) >= 0.5, 1.0, 0.0)


def _sigmoid(z):
    with np.errstate(over="ignore"):  # exp(-z) = inf for z < -709 gives the limit 0
        return 1.0 / (1.0 + np.exp(-np.asarray(z, dtype=np.float64)))


def _sigmoid_derivative(z):
    s = _sigmoid(z)
    return s * (1.0 - s)


# In-place forms of the built-in activations for evaluate_batch's
# workspaces: the same IEEE operations on the same operands as their ``fn``,
# without a temporary.  ``fn`` itself stays out of place, since training
# reads the pre-activations again for the derivative.


def _relu_in_place(z):
    return np.maximum(z, 0.0, out=z)


def _threshold_in_place(z):
    return np.greater_equal(z, 0.5, out=z, casting="unsafe")


def _sigmoid_in_place(z):
    np.negative(z, out=z)
    with np.errstate(over="ignore"):
        np.exp(z, out=z)
    z += 1.0
    return np.divide(1.0, z, out=z)


_IN_PLACE = ((_relu, _relu_in_place), (_threshold, _threshold_in_place), (_sigmoid, _sigmoid_in_place))


def _in_place_form(activation: Activation) -> Callable[[np.ndarray], np.ndarray]:
    """The in-place form of a built-in ``fn`` (matched by identity, so an
    unhashable custom fn is fine), else the activation itself."""
    return next((form for fn, form in _IN_PLACE if fn is activation.fn), activation)


def _usable_cores() -> int:
    """The number of cores this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_workers(run: Callable[[int, int], None], workers: int) -> None:
    """Call run(w, workers) for w = 0 .. workers - 1, w = 0 on the calling
    thread and each other w on a thread of its own.  Every thread is joined
    before this returns, and the first exception a thread raised is raised
    here."""
    errors: list[BaseException] = []

    def guarded(worker: int) -> None:
        try:
            run(worker, workers)
        except BaseException as exc:  # handed to the calling thread, which raises it
            errors.append(exc)

    threads = []
    try:
        for worker in range(1, workers):
            thread = threading.Thread(target=guarded, args=(worker,))
            thread.start()
            threads.append(thread)
        run(0, workers)
    finally:
        for thread in threads:
            thread.join()
    if errors:
        raise errors[0]


RELU = Activation(
    "relu", _relu, lipschitz=1.0, variation=(1.0, 1.0), monotone=True, derivative=_relu_derivative
)
THRESHOLD = Activation("threshold", _threshold, variation=(1.0, 0.0), monotone=True)
SIGMOID = Activation(
    "sigmoid", _sigmoid, lipschitz=0.25, variation=(1.0, 0.0), monotone=True,
    derivative=_sigmoid_derivative,
)

# Rows are evaluated in blocks so that one hidden activation block holds
# about this many float64 values, which bounds the temporaries.  A block is
# the unit of evaluate_batch's work split: whichever thread evaluates a
# block does the same IEEE operations on the same rows.
_ACTIVATION_BLOCK = 1 << 18

_BUILTIN_ACTIVATIONS = {"relu": RELU, "threshold": THRESHOLD, "sigmoid": SIGMOID}


def activation_by_tag(tag: str) -> Activation:
    try:
        return _BUILTIN_ACTIVATIONS[tag]
    except (KeyError, TypeError):  # a TypeError from an unhashable tag read from JSON
        raise ValueError(f"unknown activation tag {tag!r}") from None


@dataclass(frozen=True, eq=False)
class DenseNetwork:
    """Feed-forward network: hidden (W, b) layers plus an affine output.

    Weight matrices have shape (fan_out, fan_in); the output neuron is
    ``out_w @ h + out_b`` with no activation.
    """

    input_dim: int
    hidden: tuple[tuple[np.ndarray, np.ndarray], ...]
    out_w: np.ndarray
    out_b: float
    activation: Activation

    def __post_init__(self):
        fan_in = self.input_dim
        for i, (W, b) in enumerate(self.hidden):
            if W.ndim != 2 or W.shape[1] != fan_in or b.shape != (W.shape[0],):
                raise ValueError(f"layer {i} shape mismatch: W{W.shape} after fan-in {fan_in}")
            fan_in = W.shape[0]
        if self.out_w.shape != (fan_in,):
            raise ValueError(f"output weight shape {self.out_w.shape} != ({fan_in},)")
        for layer in self.hidden:
            for a in (*layer, *getattr(layer, "factors", ())):
                a.setflags(write=False)
        self.out_w.setflags(write=False)

    @property
    def depth(self) -> int:
        return len(self.hidden) + 1

    @property
    def widths(self) -> tuple[int, ...]:
        return tuple(W.shape[0] for W, _ in self.hidden)

    @property
    def max_weight(self) -> float:
        vals = [abs(self.out_b)]
        for W, b in self.hidden:
            vals.append(float(np.abs(W).max(initial=0.0)))
            vals.append(float(np.abs(b).max(initial=0.0)))
        vals.append(float(np.abs(self.out_w).max(initial=0.0)))
        return max(vals)

    def evaluate_batch(self, X: np.ndarray) -> np.ndarray:
        """The network's output on one point (1-d ``X``) or on each row of
        ``X`` (2-d), as a 1-d array with one value per row.

        Rows are evaluated in blocks of about ``_ACTIVATION_BLOCK`` hidden
        values.  When there are several blocks, every hidden layer is
        spliced or has fan-in 1 and the activation is a built-in one, the
        blocks are dealt round-robin to one thread per usable core, the
        calling thread included: those layers are numpy's single-threaded
        broadcast, add and activation loops, while a plain fan-in > 1 layer
        is a BLAS GEMM that spreads over the cores by itself, and a custom
        activation is arbitrary Python.  Each block's output is the same
        bits whichever thread evaluates it.
        """
        X = np.asarray(X, dtype=np.float64)
        if X.ndim == 1:
            X = X[None, :]
        if X.ndim != 2:
            raise ValueError(f"X must be one point (1-d) or rows (2-d), got shape {X.shape}")
        if X.shape[1] != self.input_dim:
            raise ValueError(f"input dim {X.shape[1]} != {self.input_dim}")
        rows = max(1, _ACTIVATION_BLOCK // max((*self.widths, 1)))
        starts = range(0, len(X), rows)
        activation = _in_place_form(self.activation)
        out = np.empty(len(X))

        def run(worker: int, workers: int) -> None:
            # One workspace per hidden layer, reused by every block of this
            # worker: in a fresh process each new block-sized temporary is
            # mapped and faulted in again.
            spaces = [np.empty((min(rows, len(X)), width)) for width in self.widths]
            for i in starts[worker::workers]:
                h = X[i : i + rows]
                for layer, space in zip(self.hidden, spaces):
                    h = activation(_pre_activation(layer, h, space[: len(h)]))
                out[i : i + rows] = h @ self.out_w + self.out_b

        numpy_loops = activation is not self.activation and all(
            isinstance(layer, _SplicedLayer) or layer[0].shape[1] == 1 for layer in self.hidden
        )
        _run_workers(run, min(len(starts), _usable_cores()) if numpy_loops and len(starts) > 1 else 1)
        return out

    def evaluate(self, x: np.ndarray) -> float:
        return float(self.evaluate_batch(np.asarray(x, dtype=np.float64)[None, :])[0])


@dataclass(frozen=True, eq=False)
class ThresholdCircuit:
    """Threshold network wrapped with a step on the output neuron.

    Output is 1 exactly when the underlying network's output is >= 0.5, so
    any input where the network sits within 0.49 of a bit value is decoded
    to that bit.
    """

    base: DenseNetwork

    def __post_init__(self):
        if self.base.activation.tag != "threshold":
            raise ValueError("circuit base must use the threshold activation")

    def evaluate_batch(self, X: np.ndarray) -> np.ndarray:
        return np.where(self.base.evaluate_batch(X) >= 0.5, 1, 0).astype(np.int64)

    def evaluate(self, x: np.ndarray) -> int:
        return int(self.evaluate_batch(np.asarray(x, dtype=np.float64)[None, :])[0])


def absorb_input_map(net: DenseNetwork, P: np.ndarray, b: np.ndarray) -> DenseNetwork:
    """Return net' with net'(x) = net(P x + b), same widths and depth.

    P has shape (net.input_dim, new_input_dim).  Rows of +-e_k implement
    selection and bit flips (row -e_k with offset 1 realizes x_k -> 1-x_k),
    permutation matrices reorder coordinates, zero rows with a constant
    offset pin a coordinate, and P = I is the shift net'(x) = net(x + b).
    Only the first layer is rebuilt; the deeper layers and the output are
    the read-only arrays of ``net`` itself, so a spliced layer keeps its
    factors.
    """
    P = np.asarray(P, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if P.ndim != 2 or P.shape[0] != net.input_dim:
        raise ValueError(f"map shape {P.shape} incompatible with input dim {net.input_dim}")
    if b.shape != (net.input_dim,):
        raise ValueError(f"offset shape {b.shape} != ({net.input_dim},)")
    W0, b0 = net.hidden[0]
    new_first = (W0 @ P, b0 + W0 @ b)
    return DenseNetwork(P.shape[1], (new_first, *net.hidden[1:]), net.out_w, net.out_b, net.activation)


def average_ensemble(
    nets: Sequence[DenseNetwork], coeffs: Sequence[float]
) -> DenseNetwork:
    """Combine depth-2 networks into one computing sum_j coeffs[j] * nets[j](x).

    The hidden layer is the concatenation of the members' hidden layers, so
    the result is again depth 2 with width equal to the sum of widths.
    """
    if len(nets) == 0:
        raise ValueError("need at least one network")
    if len(coeffs) != len(nets):
        raise ValueError("one coefficient per network required")
    first = nets[0]
    for net in nets:
        if net.depth != 2:
            raise ValueError("ensemble members must be depth 2")
        if net.activation.tag != first.activation.tag:
            raise ValueError("ensemble members must share one activation")
        if net.input_dim != first.input_dim:
            raise ValueError("ensemble members must share the input dimension")
    W = np.vstack([net.hidden[0][0] for net in nets])
    b = np.concatenate([net.hidden[0][1] for net in nets])
    out_w = np.concatenate([c * net.out_w for c, net in zip(coeffs, nets)])
    out_b = float(sum(c * net.out_b for c, net in zip(coeffs, nets)))
    return DenseNetwork(first.input_dim, ((W, b),), out_w, out_b, first.activation)


class _SplicedLayer(tuple):
    """The dense (W', b') pair of a spliced layer, carrying its factors
    ``(W, b, h_w, h_b)``: unit i k + j has pre-activation
    (W[i] x + b[i]) h_w[j] + h_b[j].  The dense pair is computed from the
    factors here and nowhere else: W' = kron(W, h_w) and
    b' = (outer(b, h_w) + h_b).ravel()."""

    def __new__(cls, W: np.ndarray, b: np.ndarray, h_w: np.ndarray, h_b: np.ndarray):
        layer = super().__new__(cls, (np.kron(W, h_w[:, None]), (np.outer(b, h_w) + h_b).ravel()))
        layer.factors = (W, b, h_w, h_b)
        return layer

    def __getnewargs__(self):
        return self.factors


def _affine(h: np.ndarray, W: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """h W^T + b, into ``out`` if given; a fan-in-1 W is a broadcast
    product, which gives the same bits as a K = 1 GEMM at a fraction of
    its cost."""
    if W.shape[1] == 1:
        out = np.multiply(h, W[:, 0], out=out)
    else:
        out = np.matmul(h, W.T, out=out)
    out += b
    return out


def _pre_activation(layer: tuple[np.ndarray, np.ndarray], h: np.ndarray, out: np.ndarray) -> np.ndarray:
    """h W'^T + b' for one block of rows, written into ``out`` (C-contiguous,
    one row per row of h).  A spliced layer computes its r neuron inputs
    first and scales them by h_w, costing r (fan_in + k) multiply-adds per
    row instead of r k fan_in."""
    if not isinstance(layer, _SplicedLayer):
        return _affine(h, *layer, out)
    W, b, h_w, h_b = layer.factors
    z = np.multiply(_affine(h, W, b)[:, :, None], h_w, out=out.reshape(len(h), len(W), len(h_w)))
    z += h_b
    return out


def _image(W: np.ndarray, b: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The exact range (low, high) of W z + b over the box lo <= z <= hi,
    one pair of entries per row of W."""
    Wp, Wn = np.maximum(W, 0.0), np.minimum(W, 0.0)
    return Wp @ lo + Wn @ hi + b, Wp @ hi + Wn @ lo + b


def _substitute(layers: Sequence[tuple[np.ndarray, np.ndarray]], out_w: np.ndarray, out_b: float,
                hs: Sequence[DenseNetwork]) -> DenseNetwork:
    """The affine skeleton ``layers`` read by (out_w, out_b), with the scalar
    depth-2 network hs[i] put in place of every neuron of layer i.

    Neuron j of layer (W, b) becomes h's k hidden units, rows j k .. j k + k - 1,
    kept as a layer with the factors W, b and h's hidden layer.  The next
    layer (W', b'), or the output, reads them through kron(W', h.out_w) and
    b' + W'.sum(axis=-1) h.out_b, which absorbs h's output neuron.  Every h
    must be depth 2 with one input, all with one activation tag.
    """
    for h in hs:
        if h.depth != 2 or h.input_dim != 1:
            raise ValueError(f"a substituted network must be depth 2 with one input, got depth {h.depth} "
                             f"with {h.input_dim} inputs")
    tags = sorted({h.activation.tag for h in hs})
    if len(tags) != 1:
        raise ValueError(f"substituted networks must share one activation, got {tags}")
    hidden, (W, b) = [], layers[0]
    for h, (W_next, b_next) in zip(hs, (*layers[1:], (out_w, out_b)), strict=True):
        hidden.append(_SplicedLayer(W, b, h.hidden[0][0][:, 0], h.hidden[0][1]))
        W, b = np.kron(W_next, h.out_w), b_next + W_next.sum(axis=-1) * h.out_b
    return DenseNetwork(layers[0][0].shape[1], tuple(hidden), W, float(b), hs[0].activation)


def network_to_json(net: DenseNetwork) -> str:
    """Serialize to JSON; round-trips bit-exactly for finite doubles, and a
    layer of width 0 (whose W is written as []) too."""
    if net.activation.tag not in _BUILTIN_ACTIVATIONS:
        raise ValueError("only relu/threshold/sigmoid networks serialize")
    doc = {
        "input_dim": net.input_dim,
        "activation": net.activation.tag,
        "layers": [{"W": W.tolist(), "b": b.tolist()} for W, b in net.hidden],
        "output": {"w": net.out_w.tolist(), "b": net.out_b},
    }
    return json.dumps(doc, sort_keys=True)


def network_from_json(text: str) -> DenseNetwork:
    """Load a network; raise ValueError naming a missing field, a field that
    is not the object, array or number it should be, or the layer of a
    non-finite value."""
    doc = _json_object(json.loads(text), "network JSON")
    try:
        tag, (input_dim,) = doc["activation"], _sizes(input_dim=doc["input_dim"])
        if not isinstance(doc["layers"], list):
            raise ValueError("layers must be an array")
        hidden, fan_in = [], input_dim
        for i, layer in enumerate(doc["layers"]):
            layer = _json_object(layer, f"layer {i}")
            # a layer of width 0 is written as W = [], which has no column count
            W = np.empty((0, fan_in)) if layer["W"] == [] else _json_array(layer["W"], f"layer {i} W", 2)
            hidden.append((W, _json_array(layer["b"], f"layer {i} b", 1)))
            fan_in = len(W)
        output = _json_object(doc["output"], "output")
        out_w = _json_array(output["w"], "output w", 1)
        out_b = float(_json_array(output["b"], "output b", 0))
    except KeyError as exc:
        raise ValueError(f"network JSON lacks the field {exc.args[0]!r}") from None
    layers = {f"layer {i}": layer for i, layer in enumerate(hidden)} | {"output": (out_w, out_b)}
    for name, arrays in layers.items():
        if not all(np.isfinite(a).all() for a in arrays):
            raise ValueError(f"{name} holds a non-finite weight or bias")
    return DenseNetwork(input_dim, tuple(hidden), out_w, out_b, activation_by_tag(tag))
