"""Compilation of scalar activations and depth-2 networks to threshold form.

A bounded-variation scalar function is approximated by a piecewise-constant
staircase and realized exactly as a width-n depth-2 threshold network (one
step neuron per jump).  A staircase is planned on one of two domains: an
interval, where a Lipschitz grid and the breakpoints prove its error, or a
sorted finite set of points, where its error is read off at every point.
A whole depth-2 network plans one staircase of its activation over the
pre-activations its hidden neurons reach on the Boolean cube (the set of
their values up to _MAX_CUBE_DIM inputs, the hull of their exact ranges
beyond), at accuracy delta / sum_j |out_w_j|, and puts it in place of every
neuron (``networks._substitute``).  The compiled network carries its proven
error, sum_j |out_w_j| times the staircase's certified error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .bits import _positive
from .instance import hypercube_enumeration
from .networks import (Activation, DenseNetwork, THRESHOLD, ThresholdCircuit, _ACTIVATION_BLOCK, _image,
                       _substitute)

__all__ = [
    "BudgetExceeded",
    "SegmentPlan",
    "CompiledNetwork",
    "segment_budget",
    "compile_scalar",
    "compile_network",
    "to_circuit",
    "boolean_cube_max_error",
    "threshold_1d_approximator",
]

# A run's values span at most 2 * _GREEDY_MARGIN * delta, so every point of
# a finite domain lies within 0.85 delta of its level.  On an interval the
# grid points and the breakpoints (grid midpoints) cut the domain into
# pieces at most h = delta / (4L) long, so the certificate of SegmentPlan
# is at most 0.85 delta + L h / 2 <= 0.85 delta + delta / 8 = 0.975 delta
# on every piece.
_GREEDY_MARGIN = 0.85
# Largest Lipschitz grid (about 8 R L / delta points) compile_scalar samples:
# at 2e6 points the scan and certificate take about 0.4 s and 110 MiB
# (2-core x86-64, Python 3.11, numpy 2.4).
_MAX_GRID = 2_000_000
# compile_network enumerates {0,1}^n up to this n, and so does
# boolean_cube_max_error.
_MAX_CUBE_DIM = 12
# On {0,1}^n, n <= _MAX_CUBE_DIM, a pre-activation sums at most 13 terms,
# each at most 2 M in size for M the largest |value| reached (a lone x_i = 1
# reaches w_i + b), so two evaluations of it in another order differ by
# under 1e-13 (1 + M).  Points of a finite domain closer than
# _SPLIT_GAP (1 + M) are never split, which keeps every breakpoint 5e-10
# (1 + M) away from every value, far beyond that rounding.
_SPLIT_GAP = 1e-9


class BudgetExceeded(RuntimeError):
    """A staircase needs more segments than the variation budget allows, or
    a larger sampling grid than _MAX_GRID."""


@dataclass(frozen=True, eq=False)
class SegmentPlan:
    """Staircase approximant of ``sigma``: level ``levels[i]`` holds on
    [breakpoints[i], breakpoints[i+1]), with the first level extending to
    the domain's left end and the final level to its right end.

    ``domain`` is an interval (lo, hi) or a finite set of points, a sorted
    1-d array of distinct finite values.  The constructor proves the plan
    or refuses it.  On a finite set, ``certified_error`` is
    max |sigma(v) - level(v)| over its points: exact, with no Lipschitz
    constant.  On an interval, the grid points of ``_grid`` and the
    breakpoints cut the domain into pieces [a, b], each inside one segment
    with level c.  At t in [a, b] an L-Lipschitz sigma is within
    min(|sigma(a) - c| + L (t - a), |sigma(b) - c| + L (b - t)) of c, which
    is at most (|sigma(a) - c| + |sigma(b) - c| + L (b - a)) / 2, and
    ``certified_error`` is the largest of these values over the pieces.
    ``grid_points`` counts the points the certificate read: the grid's, or
    the set's.  A plan whose bound is above ``tolerance`` raises
    RuntimeError, and one with more segments than ``segment_budget`` allows
    at R, the largest |point| of the domain, raises BudgetExceeded.
    """

    sigma: Activation
    breakpoints: np.ndarray
    levels: np.ndarray
    tolerance: float
    domain: tuple[float, float] | np.ndarray
    certified_error: float = field(init=False)
    grid_points: int = field(init=False)

    def __post_init__(self):
        for arr in (self.breakpoints, self.levels):
            arr.setflags(write=False)
        if not 0 < len(self.breakpoints) == len(self.levels):
            raise ValueError("breakpoints and levels must align")
        if not (np.diff(self.breakpoints) >= 0.0).all():
            raise ValueError("breakpoints must be sorted")
        if self.finite:
            grid = self.domain
            if not (grid.ndim == 1 and grid.size and np.isfinite(grid).all() and (np.diff(grid) > 0.0).all()):
                raise ValueError("a finite domain must be a sorted 1-d array of distinct finite points")
            grid.setflags(write=False)
            s = np.asarray(self.sigma.fn(grid), dtype=np.float64)
            err = float(np.abs(s - self.values(grid)).max())
            lo, hi = float(grid[0]), float(grid[-1])
        else:
            lo, hi = self.domain
            if not -math.inf < lo < hi < math.inf:
                raise ValueError(f"domain must be a finite interval, got {self.domain}")
            grid = _grid(self.sigma, lo, hi, self.tolerance)
            xs = np.union1d(grid, self.breakpoints)
            s = np.asarray(self.sigma.fn(xs), dtype=np.float64)
            c = self.values(xs[:-1])
            piece = np.abs(s[:-1] - c) + np.abs(s[1:] - c) + self.sigma.lipschitz * np.diff(xs)
            err = 0.5 * float(piece.max())
        R = max(abs(lo), abs(hi))
        budget = segment_budget(self.sigma, R, self.tolerance) if R > 0.0 else 1  # R = 0: the set {0}
        if not err <= self.tolerance:
            raise RuntimeError(f"staircase certification failed: {err:.3e} > {self.tolerance:.3e}")
        object.__setattr__(self, "certified_error", err)
        object.__setattr__(self, "grid_points", len(grid))
        if self.n_segments > budget:
            points = f"{grid.size} points in " if self.finite else ""
            raise BudgetExceeded(
                f"{self.n_segments} segments exceed budget {budget} for "
                f"{self.sigma.tag!r} on {points}[{lo}, {hi}] at delta={self.tolerance}"
            )

    @property
    def finite(self) -> bool:
        """Whether the domain is a finite set of points (else an interval)."""
        return isinstance(self.domain, np.ndarray)

    @property
    def n_segments(self) -> int:
        return len(self.levels)

    def values(self, xs: np.ndarray) -> np.ndarray:
        """Evaluate the staircase; each level starts at its breakpoint."""
        idx = np.searchsorted(self.breakpoints, np.asarray(xs, dtype=np.float64), side="right")
        return self.levels[np.clip(idx - 1, 0, self.n_segments - 1)]


@dataclass(frozen=True, eq=False)
class CompiledNetwork(DenseNetwork):
    """A depth-2 threshold network made by ``compile_network``.

    On every input whose pre-activations lie in the domain of ``plan``, it
    is within ``proven_error`` = sum_j |out_w_j| plan.certified_error of the
    network it was compiled from.  ``plan`` is None, and the bound 0, for a
    source whose output weights are all 0.
    """

    proven_error: float
    plan: SegmentPlan | None


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


def _segment_lipschitz(sigma: Activation, domain: tuple[float, float] | np.ndarray,
                       delta: float) -> SegmentPlan:
    """Greedy left-to-right staircase over the points of ``domain``: the
    Lipschitz grid of an interval, or a finite set itself.

    Scans the points, extending the current run while its values span at
    most 2 * _GREEDY_MARGIN * delta, and takes the run's midrange as its
    level.  A new run starts halfway between its first point and the point
    before it, but never between two points of a finite set that lie
    within _SPLIT_GAP (1 + M) of each other: the run keeps those together.
    """
    if isinstance(domain, np.ndarray):
        xs = domain
        apart = (np.diff(xs) > _SPLIT_GAP * (1.0 + float(np.abs(xs).max()))).tolist()
    else:
        xs = _grid(sigma, *domain, delta)
        apart = [True] * (len(xs) - 1)
    band = 2.0 * _GREEDY_MARGIN * delta
    vals = np.asarray(sigma.fn(xs), dtype=np.float64).tolist()
    cuts: list[int] = []
    levels: list[float] = []
    top = bot = vals[0]
    for j, v in enumerate(vals):
        run_top, run_bot = max(top, v), min(bot, v)
        if run_top - run_bot > band and apart[j - 1]:
            levels.append(0.5 * (top + bot))
            cuts.append(j)
            run_top = run_bot = v
        top, bot = run_top, run_bot
    levels.append(0.5 * (top + bot))
    cut = np.asarray(cuts, dtype=np.intp)
    return SegmentPlan(
        sigma,
        breakpoints=np.concatenate((xs[:1], 0.5 * (xs[cut - 1] + xs[cut]))),
        levels=np.asarray(levels, dtype=np.float64),
        tolerance=delta,
        domain=domain,
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
    plan = _segment_lipschitz(sigma, (-R, R), delta)
    return _plan_to_network(plan), plan


def _reached(W: np.ndarray, b: np.ndarray) -> tuple[float, float] | np.ndarray:
    """Where the pre-activations W x + b of a layer lie on {0,1}^n: for
    n <= _MAX_CUBE_DIM the sorted set of their distinct values, else the
    hull (lo, hi) of every neuron's exact range over [0,1]^n (the set of
    one point if all ranges are that point)."""
    n = W.shape[1]
    if n > _MAX_CUBE_DIM:
        lo, hi = _image(W, b, np.zeros(n), np.ones(n))
        lo, hi = float(lo.min()), float(hi.max())
        return (lo, hi) if lo < hi else np.array([lo])
    X = hypercube_enumeration(n).astype(np.float64)
    rows = max(1, _ACTIVATION_BLOCK // len(X))  # neurons per block of about _ACTIVATION_BLOCK values
    blocks = [np.unique(X @ W[k : k + rows].T + b[k : k + rows]) for k in range(0, len(W), rows)]
    return np.unique(np.concatenate(blocks))


def compile_network(net: DenseNetwork, delta: float) -> DenseNetwork:
    """Depth-2 threshold network within delta of ``net`` on the Boolean
    cube: a ``CompiledNetwork``, which carries its proven error.

    One staircase of the shared activation serves all m neurons and is
    spliced into each of them.  It is planned over the pre-activations the
    neurons reach on {0,1}^n (``_reached``): the set of their values up to
    n = _MAX_CUBE_DIM, where the certificate is exact, and beyond that the
    hull of their ranges.  Its accuracy delta' = delta / sum_j |out_w_j|
    bounds the output's error by ``proven_error`` =
    sum_j |out_w_j| certified_error <= delta.  A net whose output weights
    are all 0 is the constant out_b and compiles to a width-0 network; a
    threshold network is already exact and is returned as it is.
    """
    if net.depth != 2:
        raise ValueError("only depth-2 networks are compiled")
    (delta,) = _positive(delta=delta)
    if net.activation.tag == "threshold":
        return net
    mass = float(np.abs(net.out_w).sum())
    if mass == 0.0:
        empty = (np.zeros((0, net.input_dim)), np.zeros(0))
        return CompiledNetwork(net.input_dim, (empty,), np.zeros(0), net.out_b, THRESHOLD, 0.0, None)
    plan = _segment_lipschitz(net.activation, _reached(*net.hidden[0]), delta / mass)
    compiled = _substitute(net.hidden, net.out_w, net.out_b, (_plan_to_network(plan),))
    return CompiledNetwork(*(getattr(compiled, f.name) for f in fields(DenseNetwork)),
                           mass * plan.certified_error, plan)


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
