"""Hard-instance construction: packing, component centers, sampler, target.

The target function lives on R^{4d}.  Its support is a union of 2^{2d}
small cubes, one per component: component i sits at the center
(z_i, x_i / (4 sqrt d)) where z_i comes from a sphere packing in R^{2d}
and x_i is a hypercube vertex assigned to i by a seeded bijection.  The
function value on a component is the parity inner product of the first
and second halves of the assigned vertex, recovered pointwise by scaling
the last 2d coordinates by 3 sqrt d and rounding.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .bits import _json_array, _seed, _sizes, ip_mod2, round_half_away

__all__ = [
    "Packing",
    "PackingInfeasible",
    "InstanceSpec",
    "SampleBatch",
    "MAX_SUPPORTED_D",
    "PACKING_SPHERE_RADIUS",
    "build_packing",
    "build_instance",
    "hypercube_enumeration",
    "eval_f",
    "eval_f_batch",
    "sample_a4d",
    "min_intercomponent_distance",
    "spec_to_json",
    "spec_from_json",
    "samples_to_csv",
]

MAX_SUPPORTED_D = 6

# Proposal sphere radius for the packing.  The component-center norm is at
# most sqrt(r^2 + 1/8) and the cube shifts add at most another
# sqrt(2)/12 + cube contributions; r = 0.76 keeps every supported point
# inside the unit ball (worst case norm <= 0.9965) while preserving the
# <= 0.8 norm and > 0.4 separation invariants.
PACKING_SPHERE_RADIUS = 0.76

MIN_PAIRWISE_DISTANCE = 0.4
NORM_BOUND = 0.8

# Greedy packing: proposals drawn and Gram-screened per matmul, and the band
# around 0.4^2 in which a screened squared distance is recomputed exactly.
_PROPOSAL_BLOCK = 512
_SCREEN_SLACK = 1e-9


class PackingInfeasible(RuntimeError):
    """Raised when greedy placement exhausts its proposal budget."""


@dataclass(frozen=True, eq=False)
class Packing:
    """2^{2d} points in R^{2d}, norms <= 0.8, pairwise distance > 0.4.

    Built from its points alone: the constructor derives the minimum
    pairwise distance and the largest norm and raises ValueError on any
    broken invariant (a NaN breaks both), so every Packing holds them."""

    points: np.ndarray
    min_pairwise_distance: float = field(init=False)
    radius_bound: float = field(init=False)

    def __post_init__(self):
        self.points.setflags(write=False)
        n, dim = self.points.shape
        if n != 4 ** (dim // 2) or dim % 2 != 0 or dim < 2:
            raise ValueError(f"expected 4^(dim/2) points, got {n} in dim {dim}")
        radius = float(np.linalg.norm(self.points, axis=1).max())
        if not radius <= NORM_BOUND + 1e-12:
            raise ValueError(f"point norm {radius:.6f} exceeds {NORM_BOUND}")
        md = _min_pairwise(self.points)
        if not md > MIN_PAIRWISE_DISTANCE:
            raise ValueError(f"pairwise distance {md:.6f} not above {MIN_PAIRWISE_DISTANCE}")
        object.__setattr__(self, "min_pairwise_distance", md)
        object.__setattr__(self, "radius_bound", radius)

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    @property
    def n_points(self) -> int:
        return self.points.shape[0]


def _min_pairwise(points: np.ndarray, block: int = 512) -> float:
    """Minimum distance over unordered point pairs, blocked to bound memory.

    The Gram screen |a|^2 + |b|^2 - 2 a.b errs by less than ``slack``; rows
    within 2 slack of the screened minimum are recomputed as ((a - b)**2).sum(),
    so the result is that difference formula's."""
    n, dim = points.shape
    if n < 2:
        return math.inf
    sq = (points * points).sum(1)
    row_min = np.empty(n - 1)
    for i in range(0, n - 1, block):
        m = min(block, n - 1 - i)
        d2 = sq[i : i + m, None] + sq[None, i:] - 2.0 * (points[i : i + m] @ points[i:].T)
        d2[np.tril_indices(m, 0, n - i)] = np.inf
        row_min[i : i + m] = d2.min(1)
    slack = 64 * dim * np.finfo(np.float64).eps * sq.max()
    rows = np.flatnonzero(row_min <= row_min.min() + 2 * slack)
    best = min(float(((points[i] - points[i + 1 :]) ** 2).sum(-1).min()) for i in rows)
    return math.sqrt(best)


def build_packing(d: int, seed: int, max_attempts: int | None = None) -> Packing:
    """Greedy rejection packing on the sphere of radius 0.76 in R^{2d}.

    Proposals are uniform on the sphere; a proposal is kept when it stays
    more than 0.4 away from every accepted point.  Deterministic for fixed
    (d, seed).  Raises PackingInfeasible when the attempt budget runs out
    before 2^{2d} points are placed (a heuristic failure: retry with more
    attempts or another seed).
    """
    (d,) = _sizes(d=d)
    if d > MAX_SUPPORTED_D:
        raise ValueError(
            f"instance construction supports d <= {MAX_SUPPORTED_D} "
            f"(2^{{2d}} point storage); got d={d}"
        )
    n = 4**d
    (max_attempts,) = _sizes(max_attempts=max(10_000, 200 * n) if max_attempts is None else max_attempts)
    rng = np.random.default_rng(seed)
    dim = 2 * d
    pts = np.empty((n, dim))
    placed = drawn = 0
    close = MIN_PAIRWISE_DISTANCE**2 - _SCREEN_SLACK
    while placed < n and drawn < max_attempts:
        # A block of draws is the same stream as single draws.  The screen
        # 2r^2 - 2 v.p is the squared distance to points placed before the
        # block to ~1e-15; survivors are rescaled and tested as single draws.
        raw = rng.standard_normal((min(_PROPOSAL_BLOCK, max_attempts - drawn), dim))
        drawn += raw.shape[0]
        start = placed
        approx = raw * (PACKING_SPHERE_RADIUS / np.linalg.norm(raw, axis=1))[:, None]
        screen = 2 * PACKING_SPHERE_RADIUS**2 - 2.0 * (approx @ pts[:start].T)
        for k in np.flatnonzero((screen >= close).all(axis=1)):
            v = raw[k] * (PACKING_SPHERE_RADIUS / np.linalg.norm(raw[k]))
            near = np.flatnonzero(screen[k] <= close + 2 * _SCREEN_SLACK)
            others = np.concatenate((pts[near], pts[start:placed]))
            if (np.linalg.norm(others - v, axis=1) > MIN_PAIRWISE_DISTANCE).all():
                pts[placed] = v
                placed += 1
                if placed == n:
                    break
    if placed < n:
        raise PackingInfeasible(
            f"placed {placed}/{n} points in {max_attempts} attempts "
            f"(d={d}, seed={seed}); raise max_attempts or change the seed"
        )
    return Packing(pts)


def hypercube_enumeration(n_bits: int) -> np.ndarray:
    """All vertices of {0,1}^n_bits; row i holds the binary digits of i.

    Bit j of index i lands in column j (least significant bit first).
    """
    idx = np.arange(2**n_bits, dtype=np.int64)
    return ((idx[:, None] >> np.arange(n_bits)) & 1).astype(np.int8)


@dataclass(frozen=True, eq=False)
class InstanceSpec:
    """Instance container: packing and the center/vertex pairing.

    ``matching[i]`` is the hypercube enumeration index assigned to packing
    point i.  The dimension d is half the packing's.  Scale facts: hypercube
    vertices shrink by 1/(4 sqrt d), the per-component cube has edge
    1/(12 sqrt d).  ``support_radius`` is the largest norm on the support,
    which must lie in the unit ball: the packing's 0.8 norm bound alone
    lets a cube corner reach about 1.032.
    """

    packing: Packing
    matching: np.ndarray
    seed: int
    support_radius: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "seed", _seed(self.seed))
        self.matching.setflags(write=False)
        n = self.packing.n_points
        if sorted(self.matching.tolist()) != list(range(n)):
            raise ValueError("matching must be a bijection onto the hypercube")
        # a cube [c, c + e] is farthest from 0 at c_k + e where c_k + e/2 >= 0
        c, e = self.centers(), self.cube_edge
        far = np.where(c + e / 2 >= 0, c + e, c)
        radius = float(np.sqrt((far * far).sum(axis=1)).max())
        if not radius <= 1.0:
            raise ValueError(f"support radius {radius:.6f} leaves the unit ball")
        object.__setattr__(self, "support_radius", radius)

    @property
    def d(self) -> int:
        return self.packing.dim // 2

    @property
    def x_scale(self) -> float:
        return 1.0 / (4.0 * math.sqrt(self.d))

    @property
    def cube_edge(self) -> float:
        return 1.0 / (12.0 * math.sqrt(self.d))

    @property
    def n_components(self) -> int:
        return self.packing.n_points

    def component_bits(self, i: int) -> np.ndarray:
        """The 2d-bit hypercube vertex matched to component i."""
        idx = int(self.matching[i])
        return ((idx >> np.arange(2 * self.d)) & 1).astype(np.int8)

    def centers(self) -> np.ndarray:
        """All component centers (z_i, vertex_i / (4 sqrt d)), shape (4^d, 4d)."""
        bits = hypercube_enumeration(2 * self.d)[self.matching]
        return np.hstack([self.packing.points, bits * self.x_scale])


def build_instance(d: int, seed: int, max_attempts: int | None = None) -> InstanceSpec:
    """Packing plus a seeded random bijection between points and vertices."""
    packing = build_packing(d, seed, max_attempts)
    rng = np.random.default_rng([seed, 1])
    matching = rng.permutation(4**d).astype(np.int64)
    return InstanceSpec(packing=packing, matching=matching, seed=seed)


def eval_f_batch(d: int, points: np.ndarray) -> np.ndarray:
    """Vectorized target evaluation on rows of ``points`` (shape (n, 4d)).

    Ignores the first 2d coordinates, scales the remaining two d-blocks by
    3 sqrt d, rounds each entry to the nearest integer, and returns the
    parity of the blockwise inner product.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim == 1:
        pts = pts[None, :]
    if pts.shape[1] != 4 * d:
        raise ValueError(f"expected point length {4 * d}, got {pts.shape[1]}")
    scale = 3.0 * math.sqrt(d)
    x = round_half_away(scale * pts[:, 2 * d : 3 * d])
    y = round_half_away(scale * pts[:, 3 * d :])
    return ip_mod2(x, y).astype(np.int8)


def eval_f(d: int, point: np.ndarray) -> int:
    """Scalar form of :func:`eval_f_batch`."""
    return int(eval_f_batch(d, np.asarray(point, dtype=np.float64)[None, :])[0])


@dataclass(frozen=True, eq=False)
class SampleBatch:
    """Batch of draws from the uniform law on the support.

    ``points[k]`` lies in component ``component_index[k]`` and carries
    ``labels[k]`` = target value at that point.
    """

    points: np.ndarray
    component_index: np.ndarray
    labels: np.ndarray

    def __len__(self) -> int:
        return self.points.shape[0]

    def __getitem__(self, k: int):
        return self.points[k], int(self.component_index[k]), int(self.labels[k])


def sample_a4d(spec: InstanceSpec, n: int, seed: int) -> SampleBatch:
    """Draw n points: uniform component center plus a uniform cube offset.
    An empty sample is an error, so no statistic over it reads as zero."""
    (n,) = _sizes(n=n)
    rng = np.random.default_rng(seed)
    comp = rng.integers(0, spec.n_components, size=n)
    centers = spec.centers()
    offsets = rng.uniform(0.0, spec.cube_edge, size=(n, 4 * spec.d))
    pts = centers[comp] + offsets
    labels = eval_f_batch(spec.d, pts)
    return SampleBatch(points=pts, component_index=comp, labels=labels)


def min_intercomponent_distance(spec: InstanceSpec) -> float:
    """Worst-case gap between distinct components of the support.

    Distance between the nearest two component centers minus the cube
    diameter, which is exactly sqrt(4d / (144 d)) = 1/6.  The packing
    invariants force the result above 0.4 - 1/6.
    """
    centers = spec.centers()
    return _min_pairwise(centers) - 1.0 / 6.0


def spec_to_json(spec: InstanceSpec) -> str:
    doc = {
        "d": spec.d,
        "seed": spec.seed,
        "points": spec.packing.points.tolist(),
        "matching": spec.matching.tolist(),
    }
    return json.dumps(doc, sort_keys=True)


def spec_from_json(text: str) -> InstanceSpec:
    """Load an instance; ValueError if d disagrees with the points or they break an invariant."""
    doc = json.loads(text)
    (d,) = _sizes(d=doc["d"])
    pts = _json_array(doc["points"], "points", 2)
    if not (d <= MAX_SUPPORTED_D and pts.shape == (4**d, 2 * d) and np.isfinite(pts).all()):
        raise ValueError(f"d={d} needs 4^d finite points in dim 2d, got shape {pts.shape}")
    return InstanceSpec(
        packing=Packing(pts),
        matching=_json_array(doc["matching"], "matching", 1, integral=True),
        seed=doc["seed"],
    )


def samples_to_csv(batch: SampleBatch) -> str:
    """CSV export with columns point0..point{4d-1}, component_index, label."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    dim = batch.points.shape[1]
    writer.writerow([f"point{j}" for j in range(dim)] + ["component_index", "label"])
    for k in range(len(batch)):
        row = [repr(float(v)) for v in batch.points[k]]
        row.append(str(int(batch.component_index[k])))
        row.append(str(int(batch.labels[k])))
        writer.writerow(row)
    return buf.getvalue()
