"""Compilation of scalar activations and depth-2 networks to threshold form.

A bounded-variation scalar function is approximated by a piecewise-constant
staircase and realized exactly as a width-n depth-2 threshold network (one
step neuron per jump).  A whole depth-2 network follows by compiling its
activation once on the pre-activation range and splicing the staircase into
every neuron, at per-neuron accuracy delta / (width * weight_bound).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

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

# Fraction of the tolerance the greedy may consume per segment; the rest
# covers excursions between sample points (<= delta/8 at step delta/(4L))
# and breakpoint localization slack (<= delta/100).
_GREEDY_MARGIN = 0.85
_MAX_CUBE_DIM = 12  # boolean_cube_max_error enumerates {0,1}^n only up to this n


class BudgetExceeded(RuntimeError):
    """Greedy segmentation used more segments than the variation budget allows."""


@dataclass(frozen=True, eq=False)
class SegmentPlan:
    """Staircase approximant: level ``levels[i]`` holds on
    [breakpoints[i], breakpoints[i+1]), with the final level extending to
    the domain's right end.

    ``jump_signs[i]`` records whether level i starts at its breakpoint
    inclusively (+1) or just after it (-1); the first entry is unused.
    ``certified_error`` is the measured sup deviation on the internal
    certification grid, always <= tolerance.
    """

    breakpoints: np.ndarray
    levels: np.ndarray
    jump_signs: np.ndarray
    tolerance: float
    domain: tuple[float, float]
    certified_error: float = float("nan")

    def __post_init__(self):
        for arr in (self.breakpoints, self.levels, self.jump_signs):
            arr.setflags(write=False)
        if not (len(self.breakpoints) == len(self.levels) == len(self.jump_signs)):
            raise ValueError("breakpoints, levels and jump_signs must align")

    @property
    def n_segments(self) -> int:
        return len(self.levels)

    def values(self, xs: np.ndarray) -> np.ndarray:
        """Evaluate the staircase, honoring per-jump open/closed sides."""
        xs = np.asarray(xs, dtype=np.float64)
        idx = np.searchsorted(self.breakpoints, xs, side="right") - 1
        idx = np.clip(idx, 0, self.n_segments - 1)
        # a -1 jump keeps the previous level at the breakpoint itself
        exclusive = self.jump_signs[idx] < 0
        at_break = xs == self.breakpoints[idx]
        idx = np.where(exclusive & at_break & (idx > 0), idx - 1, idx)
        return self.levels[idx]


def segment_budget(sigma: Activation, R: float, delta: float) -> int:
    """Segment-count ceiling 2 c (1 + 2R)^alpha / delta + 1 from the
    activation's declared variation profile."""
    if sigma.variation is None:
        raise ValueError(f"activation {sigma.tag!r} has no variation profile")
    c, alpha = sigma.variation
    return int(math.floor(2.0 * c * (1.0 + 2.0 * R) ** alpha / delta)) + 1


def _segment_steps(sigma: Activation, lo: float, hi: float, delta: float) -> SegmentPlan:
    """Symbolic plan for an exactly piecewise-constant activation."""
    positions, levels = sigma.steps
    bps = [lo]
    lvls = [levels[0]]
    signs = [1]
    for k, p in enumerate(positions):
        if lo < p <= hi:
            bps.append(p)
            lvls.append(levels[k + 1])
            signs.append(1)  # step value belongs to the right level
        elif p <= lo:
            lvls[0] = levels[k + 1]
    return SegmentPlan(
        breakpoints=np.asarray(bps, dtype=np.float64),
        levels=np.asarray(lvls, dtype=np.float64),
        jump_signs=np.asarray(signs, dtype=np.int64),
        tolerance=delta,
        domain=(lo, hi),
        certified_error=0.0,
    )


def _segment_lipschitz(
    sigma: Activation, lo: float, hi: float, delta: float
) -> SegmentPlan:
    """Greedy left-to-right staircase for a Lipschitz activation.

    Scans a grid of step delta/(4L), extending the current segment while
    the sampled value envelope spans at most 2 * 0.85 * delta, and takes
    the midrange as the level.  The crossing is bisection-localized to
    delta/(100 max(L,1)) so the staircase stays certifiably within delta.
    """
    L = sigma.lipschitz
    if L is None:
        raise ValueError(f"activation {sigma.tag!r} needs a Lipschitz constant")
    fn = sigma.fn
    band = 2.0 * _GREEDY_MARGIN * delta
    if L == 0:
        level = float(fn(np.array([lo]))[0])
        return SegmentPlan(
            breakpoints=np.array([lo]),
            levels=np.array([level]),
            jump_signs=np.array([1]),
            tolerance=delta,
            domain=(lo, hi),
            certified_error=0.0,
        )
    step = delta / (4.0 * L)
    n_grid = int(math.ceil((hi - lo) / step)) + 1
    xs = np.linspace(lo, hi, n_grid)
    vals = np.asarray(fn(xs), dtype=np.float64)
    loc_tol = delta / (100.0 * max(L, 1.0))

    breakpoints = [lo]
    levels: list[float] = []
    signs = [1]
    seg_max = vals[0]
    seg_min = vals[0]
    j = 1
    while j < n_grid:
        cand_max = max(seg_max, vals[j])
        cand_min = min(seg_min, vals[j])
        if cand_max - cand_min <= band:
            seg_max, seg_min = cand_max, cand_min
            j += 1
            continue
        # bisect the crossing inside (xs[j-1], xs[j])
        t_lo, t_hi = xs[j - 1], xs[j]
        while t_hi - t_lo > loc_tol:
            mid = 0.5 * (t_lo + t_hi)
            v = float(fn(np.array([mid]))[0])
            if max(seg_max, v) - min(seg_min, v) <= band:
                t_lo = mid
            else:
                t_hi = mid
        v_bp = float(fn(np.array([t_lo]))[0])
        seg_max = max(seg_max, v_bp)
        seg_min = min(seg_min, v_bp)
        levels.append(0.5 * (seg_max + seg_min))
        breakpoints.append(t_lo)
        signs.append(1)
        seg_max = seg_min = v_bp
    levels.append(0.5 * (seg_max + seg_min))

    base_levels = np.asarray(levels, dtype=np.float64)
    jumps = np.diff(base_levels)
    sign_arr = np.asarray(signs, dtype=np.int64)
    sign_arr[1:] = np.where(jumps >= 0, 1, -1)
    return SegmentPlan(
        breakpoints=np.asarray(breakpoints, dtype=np.float64),
        levels=base_levels,
        jump_signs=sign_arr,
        tolerance=delta,
        domain=(lo, hi),
    )


def _certify_plan(plan: SegmentPlan, sigma: Activation, n_points: int = 20001) -> SegmentPlan:
    lo, hi = plan.domain
    xs = np.linspace(lo, hi, n_points)
    err = float(np.abs(np.asarray(sigma.fn(xs), dtype=np.float64) - plan.values(xs)).max())
    if err > plan.tolerance:
        raise RuntimeError(
            f"staircase certification failed: {err:.3e} > {plan.tolerance:.3e}"
        )
    return replace(plan, certified_error=err)


def _plan_to_network(plan: SegmentPlan) -> DenseNetwork:
    """Realize the staircase as sum_i v_i thresh(w_i x + b_i) + b_0.

    Jump i (size J = levels[i] - levels[i-1], position p): a +1 sign uses
    w = 1, b = -p + 0.5, v = J, firing exactly when x >= p; a -1 sign uses
    w = -1, b = p + 0.5, v = -J plus a constant correction J, firing for
    x <= p so the new level starts just past p.  Zero jumps are dropped.
    """
    ws, bs, vs = [], [], []
    out_b = float(plan.levels[0])
    for i in range(1, plan.n_segments):
        jump = float(plan.levels[i] - plan.levels[i - 1])
        if jump == 0.0:
            continue
        p = float(plan.breakpoints[i])
        if plan.jump_signs[i] >= 0:
            ws.append(1.0)
            bs.append(-p + 0.5)
            vs.append(jump)
        else:
            ws.append(-1.0)
            bs.append(p + 0.5)
            vs.append(-jump)
            out_b += jump
    W = np.asarray(ws, dtype=np.float64).reshape(-1, 1)
    b = np.asarray(bs, dtype=np.float64)
    v = np.asarray(vs, dtype=np.float64)
    return DenseNetwork(1, ((W, b),), v, out_b, THRESHOLD)


def compile_scalar(
    sigma: Activation, R: float, delta: float
) -> tuple[DenseNetwork, SegmentPlan]:
    """Depth-2 threshold network within delta of sigma on [-R, R].

    Raises BudgetExceeded if the greedy staircase needs more segments than
    the activation's variation profile licenses.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    if R <= 0:
        raise ValueError("R must be positive")
    budget = segment_budget(sigma, R, delta)
    if sigma.steps is not None:
        plan = _segment_steps(sigma, -R, R, delta)
    else:
        plan = _segment_lipschitz(sigma, -R, R, delta)
        plan = _certify_plan(plan, sigma)
    if plan.n_segments > budget:
        raise BudgetExceeded(
            f"{plan.n_segments} segments exceed budget {budget} for "
            f"{sigma.tag!r} on [-{R}, {R}] at delta={delta}"
        )
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
    if delta <= 0:
        raise ValueError("delta must be positive")
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
    """Wrap a threshold network with a step on the output neuron."""
    if net.activation.tag != "threshold":
        raise ValueError("circuit construction requires a threshold network")
    return ThresholdCircuit(base=net)


def boolean_cube_max_error(net_a: DenseNetwork, net_b: DenseNetwork) -> float:
    """Exhaustive max |net_a - net_b| over {0,1}^n, n <= _MAX_CUBE_DIM."""
    n = net_a.input_dim
    if net_b.input_dim != n:
        raise ValueError("input dimensions differ")
    if n > _MAX_CUBE_DIM:
        raise ValueError(f"cube dimension {n} above exhaustive limit {_MAX_CUBE_DIM}")
    from .instance import hypercube_enumeration

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
