"""Compilation of scalar activations and depth-2 networks to threshold form.

A bounded-variation scalar function is approximated by a piecewise-constant
staircase and realized exactly as a width-n depth-2 threshold network (one
step neuron per jump).  A whole depth-2 network follows by compiling its
activation once on the pre-activation range and splicing the staircase into
every neuron, at per-neuron accuracy delta / (width * weight_bound).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .bits import _positive
from .instance import hypercube_enumeration
from .networks import Activation, DenseNetwork, THRESHOLD, ThresholdCircuit, splice

__all__ = [
    "BudgetExceeded",
    "SegmentPlan",
    "segment_budget",
    "compile_scalar",
    "compile_network",
    "to_circuit",
    "boolean_cube_max_error",
    "threshold_1d_approximator",
]

# A run's sampled values span at most 2 * _GREEDY_MARGIN * delta, so every
# grid sample lies within 0.85 delta of its level.  The grid points and the
# breakpoints (grid midpoints) cut the domain into pieces at most
# h = delta / (4L) long, so the certificate of SegmentPlan is at most
# 0.85 delta + L h / 2 <= 0.85 delta + delta / 8 = 0.975 delta on every piece.
_GREEDY_MARGIN = 0.85
# Largest Lipschitz grid (about 8 R L / delta points) compile_scalar samples:
# at 2e6 points the scan and certificate take about 0.4 s and 110 MiB
# (2-core x86-64, Python 3.11, numpy 2.4).
_MAX_GRID = 2_000_000
_MAX_CUBE_DIM = 12  # boolean_cube_max_error enumerates {0,1}^n only up to this n


class BudgetExceeded(RuntimeError):
    """A staircase needs more segments than the variation budget allows, or
    a larger sampling grid than _MAX_GRID."""


@dataclass(frozen=True, eq=False)
class SegmentPlan:
    """Staircase approximant of ``sigma``: level ``levels[i]`` holds on
    [breakpoints[i], breakpoints[i+1]), with the final level extending to
    the domain's right end.

    The constructor proves the plan or refuses it.  The grid points of
    ``_grid`` (``grid_points`` of them) and the breakpoints cut the domain
    into pieces [a, b], each inside one segment with level c.  At t in
    [a, b] an L-Lipschitz sigma is within min(|sigma(a) - c| + L (t - a),
    |sigma(b) - c| + L (b - t)) of c, which is at most
    (|sigma(a) - c| + |sigma(b) - c| + L (b - a)) / 2.  ``certified_error``
    is the largest of these values over the pieces; a plan whose bound is
    above ``tolerance`` raises RuntimeError, and one with more segments
    than ``segment_budget`` allows raises BudgetExceeded.
    """

    sigma: Activation
    breakpoints: np.ndarray
    levels: np.ndarray
    tolerance: float
    domain: tuple[float, float]
    certified_error: float = field(init=False)
    grid_points: int = field(init=False)

    def __post_init__(self):
        for arr in (self.breakpoints, self.levels):
            arr.setflags(write=False)
        if not 0 < len(self.breakpoints) == len(self.levels):
            raise ValueError("breakpoints and levels must align")
        if not (np.diff(self.breakpoints) >= 0.0).all():
            raise ValueError("breakpoints must be sorted")
        lo, hi = self.domain
        if not -math.inf < lo < hi < math.inf:
            raise ValueError(f"domain must be a finite interval, got {self.domain}")
        budget = segment_budget(self.sigma, max(abs(lo), abs(hi)), self.tolerance)
        grid = _grid(self.sigma, lo, hi, self.tolerance)
        xs = np.union1d(grid, self.breakpoints)
        s = np.asarray(self.sigma.fn(xs), dtype=np.float64)
        c = self.values(xs[:-1])
        piece = np.abs(s[:-1] - c) + np.abs(s[1:] - c) + self.sigma.lipschitz * np.diff(xs)
        err = 0.5 * float(piece.max())
        if not err <= self.tolerance:
            raise RuntimeError(f"staircase certification failed: {err:.3e} > {self.tolerance:.3e}")
        object.__setattr__(self, "certified_error", err)
        object.__setattr__(self, "grid_points", len(grid))
        if self.n_segments > budget:
            raise BudgetExceeded(
                f"{self.n_segments} segments exceed budget {budget} for "
                f"{self.sigma.tag!r} on [{lo}, {hi}] at delta={self.tolerance}"
            )

    @property
    def n_segments(self) -> int:
        return len(self.levels)

    def values(self, xs: np.ndarray) -> np.ndarray:
        """Evaluate the staircase; each level starts at its breakpoint."""
        idx = np.searchsorted(self.breakpoints, np.asarray(xs, dtype=np.float64), side="right")
        return self.levels[np.clip(idx - 1, 0, self.n_segments - 1)]


def segment_budget(sigma: Activation, R: float, delta: float) -> int:
    """Segment-count ceiling 2 c (1 + 2R)^alpha / delta + 1 from the
    activation's declared variation profile."""
    if sigma.variation is None:
        raise ValueError(f"activation {sigma.tag!r} has no variation profile")
    R, delta = _positive(R=R, delta=delta)
    c, alpha = sigma.variation
    return int(math.floor(2.0 * c * (1.0 + 2.0 * R) ** alpha / delta)) + 1


def _grid(sigma: Activation, lo: float, hi: float, delta: float) -> np.ndarray:
    """At least 2 evenly spaced points on [lo, hi], at most delta/(4L) apart."""
    if sigma.lipschitz is None:
        raise ValueError(f"activation {sigma.tag!r} needs a Lipschitz constant")
    span = (hi - lo) * 4.0 * sigma.lipschitz / delta
    if not span < _MAX_GRID:
        raise BudgetExceeded(
            f"a grid of {span + 1:.3g} points for {sigma.tag!r} on [{lo}, {hi}] "
            f"at delta={delta} exceeds {_MAX_GRID}"
        )
    return np.linspace(lo, hi, max(2, math.ceil(span) + 1))


def _segment_lipschitz(sigma: Activation, lo: float, hi: float, delta: float) -> SegmentPlan:
    """Greedy left-to-right staircase for a Lipschitz activation.

    Scans the grid, extending the current run while its sampled values
    span at most 2 * _GREEDY_MARGIN * delta, and takes the run's midrange
    as its level.  A new run starts halfway between its first sample and
    the sample before it.
    """
    xs = _grid(sigma, lo, hi, delta)
    band = 2.0 * _GREEDY_MARGIN * delta
    vals = np.asarray(sigma.fn(xs), dtype=np.float64).tolist()
    cuts: list[int] = []
    levels: list[float] = []
    top = bot = vals[0]
    for j, v in enumerate(vals):
        run_top, run_bot = max(top, v), min(bot, v)
        if run_top - run_bot > band:
            levels.append(0.5 * (top + bot))
            cuts.append(j)
            run_top = run_bot = v
        top, bot = run_top, run_bot
    levels.append(0.5 * (top + bot))
    cut = np.asarray(cuts, dtype=np.intp)
    return SegmentPlan(
        sigma,
        breakpoints=np.concatenate(([lo], 0.5 * (xs[cut - 1] + xs[cut]))),
        levels=np.asarray(levels, dtype=np.float64),
        tolerance=delta,
        domain=(lo, hi),
    )


def _plan_to_network(plan: SegmentPlan) -> DenseNetwork:
    """Realize the staircase as levels[0] + sum_i J_i thresh(x - p_i + 0.5).

    Jump i has size J_i = levels[i] - levels[i-1] and position
    p_i = breakpoints[i]; its neuron fires exactly when x >= p_i.  Zero
    jumps are dropped.
    """
    jumps = np.diff(plan.levels)
    fired = jumps != 0.0
    p = plan.breakpoints[1:][fired]
    layer = (np.ones((p.size, 1)), 0.5 - p)
    return DenseNetwork(1, (layer,), jumps[fired], float(plan.levels[0]), THRESHOLD)


def compile_scalar(sigma: Activation, R: float, delta: float) -> tuple[DenseNetwork, SegmentPlan]:
    """Depth-2 threshold network within delta of the Lipschitz activation
    sigma on [-R, R].

    Raises BudgetExceeded if the greedy staircase needs more segments than
    the activation's variation profile licenses, or a grid above _MAX_GRID.
    """
    R, delta = _positive(R=R, delta=delta)
    plan = _segment_lipschitz(sigma, -R, R, delta)
    return _plan_to_network(plan), plan


def compile_network(net: DenseNetwork, delta: float) -> DenseNetwork:
    """Depth-2 threshold network within delta of ``net`` on the Boolean cube.

    Each hidden neuron's pre-activation on {0,1}^n is confined to
    [-(n+1)C, (n+1)C] for weight bound C, so one staircase of the shared
    activation at accuracy delta/(mC) serves all m neurons and is spliced
    into each of them; output weights of magnitude <= C make the
    contributions add up to at most delta.  A threshold network is already
    exact and is returned as it is.
    """
    if net.depth != 2:
        raise ValueError("only depth-2 networks are compiled")
    (delta,) = _positive(delta=delta)
    if net.activation.tag == "threshold":
        return net
    m = net.widths[0]
    C = net.max_weight
    if m == 0 or C == 0.0:
        empty = (np.zeros((0, net.input_dim)), np.zeros(0))
        return DenseNetwork(net.input_dim, (empty,), np.zeros(0), net.out_b, THRESHOLD)
    R_pre = (net.input_dim + 1) * C
    scalar_net, _plan = compile_scalar(net.activation, R_pre, delta / (m * C))
    layer = splice(*net.hidden[0], scalar_net)
    out_w = np.kron(net.out_w, scalar_net.out_w)
    out_b = net.out_b + float(net.out_w.sum()) * scalar_net.out_b
    return DenseNetwork(net.input_dim, (layer,), out_w, out_b, THRESHOLD)


def to_circuit(net: DenseNetwork) -> ThresholdCircuit:
    """Wrap a threshold network with a step on the output neuron; the
    circuit rejects any other activation."""
    return ThresholdCircuit(base=net)


def boolean_cube_max_error(net_a: DenseNetwork, net_b: DenseNetwork) -> float:
    """Exhaustive max |net_a - net_b| over {0,1}^n, n <= _MAX_CUBE_DIM."""
    n = net_a.input_dim
    if net_b.input_dim != n:
        raise ValueError("input dimensions differ")
    if n > _MAX_CUBE_DIM:
        raise ValueError(f"cube dimension {n} above exhaustive limit {_MAX_CUBE_DIM}")
    X = hypercube_enumeration(n).astype(np.float64)
    return float(np.abs(net_a.evaluate_batch(X) - net_b.evaluate_batch(X)).max())


def threshold_1d_approximator(spec) -> DenseNetwork:
    """1-d approximation primitive backed by the scalar threshold compiler.

    Satisfies the same contract as the ReLU interpolant, so the generic
    depth-3 builder can run entirely on threshold activations.
    """
    L = max(spec.lipschitz, 0.0)
    target = Activation(
        "custom",
        spec.target,
        lipschitz=L,
        variation=(max(1.0, L), 1.0),
    )
    R = max(abs(spec.lo), abs(spec.hi))
    net, _plan = compile_scalar(target, R, spec.accuracy)
    return net
