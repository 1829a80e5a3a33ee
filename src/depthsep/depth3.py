"""Depth-3 constructions computing the hard parity target.

Two builders ship here.  ``build_exact_relu`` produces the hand-crafted
ReLU network that agrees with the target exactly on the support: the first
hidden layer computes, per coordinate pair, a clamp gadget that equals the
AND of the rounded bits, and the second layer folds their sum through a
truncated triangle wave whose integer values alternate 0, 1, 0, 1, ...
``build_generic`` assembles the same composition from any 1-d approximation
primitive.  Both are one ``networks._substitute`` call on one affine
skeleton: the ramp network takes the place of the d pair neurons and the
triangle-wave network that of the single neuron summing them, with the
ramp's output neuron absorbed into the second hidden layer so the result
stays depth 3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .bits import _positive, _sizes
from .networks import RELU, DenseNetwork, _substitute

__all__ = [
    "Approx1DSpec",
    "GenericBuildReport",
    "reference_g1",
    "reference_g2",
    "build_exact_relu",
    "relu_1d_approximator",
    "build_generic",
]


def reference_g1(z):
    """Clamp ramp: 0 below 5, linear on (5, 6), 1 above 6."""
    z = np.asarray(z, dtype=np.float64)
    return np.clip(z - 5.0, 0.0, 1.0)


def reference_g2(z):
    """Unit triangle wave: z mod 1 on even floors, mirrored on odd floors."""
    z = np.asarray(z, dtype=np.float64)
    frac = np.mod(z, 1.0)
    odd = np.mod(np.floor(z), 2.0) == 1.0
    return np.where(odd, 1.0 - frac, frac)


def build_exact_relu(d: int) -> DenseNetwork:
    """Depth-3 ReLU network equal to the target on the whole support.

    Input layout is (ignored 2d block, x block of length d, y block of
    length d).  It is the composition of two exact 1-d ReLU networks, with
    hidden widths (2d, d + 1):

    * the ramp relu(s - 5) - relu(s - 6) on s_i = 12 sqrt(d) (x_i + y_i).
      On the support s_i lands in [0,2] u [3,5] u [6,8], so the ramp is
      exactly the AND of the rounded bits.
    * the wave relu(z) + sum_{k=1}^{d} 2 (-1)^k relu(z - k) on the ramp sum
      z, the triangle wave of the integer inner product.
    """
    (d,) = _sizes(d=d)
    ramp_out = np.array([1.0, -1.0])
    ramp = DenseNetwork(1, ((np.ones((2, 1)), np.array([-5.0, -6.0])),), ramp_out, 0.0, RELU)
    wave_out = np.r_[1.0, 2.0 * (-1.0) ** np.arange(1, d + 1)]
    wave = DenseNetwork(1, ((np.ones((d + 1, 1)), -np.arange(d + 1.0)),), wave_out, 0.0, RELU)
    return _compose(d, ramp, wave)


def _compose(d: int, h1: DenseNetwork, h2: DenseNetwork) -> DenseNetwork:
    """h2(sum_i h1(12 sqrt(d) (x_i + y_i))) as one depth-3 network on 4d inputs.

    h1 takes the place of the d pair neurons and h2 that of the single
    neuron summing their outputs.
    """
    pairs = 12.0 * math.sqrt(d) * np.hstack([np.zeros((d, 2 * d)), np.eye(d), np.eye(d)])
    skeleton = ((pairs, np.zeros(d)), (np.ones((1, d)), np.zeros(1)))
    return _substitute(skeleton, np.ones(1), 0.0, (h1, h2))


@dataclass(frozen=True)
class Approx1DSpec:
    """Contract for a 1-d approximation primitive.

    The primitive must return a depth-2 scalar-input network h with
    sup_{x in [lo, hi]} |target(x) - h(x)| <= accuracy, for any target
    that is ``lipschitz``-Lipschitz on [lo, hi].
    """

    target: Callable[[np.ndarray], np.ndarray]
    lo: float
    hi: float
    lipschitz: float
    accuracy: float

    def __post_init__(self):
        object.__setattr__(self, "accuracy", _positive(accuracy=self.accuracy)[0])
        for name in ("lo", "hi", "lipschitz"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if not self.hi > self.lo:
            raise ValueError("need hi > lo")
        if self.lipschitz < 0:
            raise ValueError("lipschitz constant must be nonnegative")


Approximator1D = Callable[[Approx1DSpec], DenseNetwork]


def relu_1d_approximator(spec: Approx1DSpec) -> DenseNetwork:
    """Piecewise-linear interpolation at knots spaced accuracy/lipschitz.

    The interpolant of an L-Lipschitz target on a grid of step h deviates
    by at most L h / 2, so step accuracy/L certifies half the budget.
    Width is at most (hi - lo) L / accuracy + 1; knot positions, slope
    increments (<= 2L) and the base value are the only scalars used.
    """
    span = spec.hi - spec.lo
    m = max(1, math.ceil(span * spec.lipschitz / spec.accuracy))
    knots = np.linspace(spec.lo, spec.hi, m + 1)
    vals = np.asarray(spec.target(knots), dtype=np.float64)
    slopes = np.diff(vals) / np.diff(knots)
    increments = np.diff(slopes, prepend=0.0)
    W = np.ones((m, 1))
    b = -knots[:-1].copy()
    return DenseNetwork(1, ((W, b),), increments, float(vals[0]), RELU)


@dataclass(frozen=True)
class GenericBuildReport:
    """Built network plus static width/weight accounting, read from it."""

    net: DenseNetwork

    @property
    def widths(self) -> tuple[int, ...]:
        return self.net.widths

    @property
    def max_weights(self) -> tuple[float, ...]:
        """Largest absolute weight or bias of each hidden layer."""
        return tuple(float(max(np.abs(W).max(initial=0.0), np.abs(b).max(initial=0.0)))
                     for W, b in self.net.hidden)


def build_generic(
    d: int, eps: float, approximator: Approximator1D = relu_1d_approximator
) -> GenericBuildReport:
    """Depth-3 network within eps of the target uniformly on the support.

    The clamp ramp is approximated to eps/(2d) on [0, 8] and the triangle
    wave to eps/2 on [-2d-1, 2d+1], for every eps > 0; the first
    hidden layer holds d copies of the ramp approximant (driven by
    12 sqrt(d) (x_i + y_i)), and the wave approximant's hidden layer
    becomes the second hidden layer with the ramp output neurons absorbed
    into its weights.  Widths come out O(d^2/eps) and O(d/eps); absorbed
    second-layer weights stay within O(d/eps^2).
    """
    (d,), (eps,) = _sizes(d=d), _positive(eps=eps)
    h1 = approximator(Approx1DSpec(reference_g1, 0.0, 8.0, 1.0, eps / (2.0 * d)))
    h2 = approximator(
        Approx1DSpec(reference_g2, -(2.0 * d + 1.0), 2.0 * d + 1.0, 1.0, eps / 2.0)
    )
    return GenericBuildReport(_compose(d, h1, h2))
