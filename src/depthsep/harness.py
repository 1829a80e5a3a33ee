"""Experiment driver: width sweeps, sup-error measurement, and the
all-in-one verification battery behind ``verify-all``."""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
import time
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import depth3, instance, networks, reduction, threshold, training

__all__ = [
    "ExperimentReport",
    "measure_sup_error",
    "run_separation_experiment",
    "verify_all",
    "CHECK_NAMES",
]


def measure_sup_error(
    net: networks.DenseNetwork,
    spec: instance.InstanceSpec,
    n: int,
    seed: int,
) -> float:
    """Max |net - target| over the n support samples sample_a4d(spec, n, seed);
    an empty sample is an error, not a zero error."""
    samples = instance.sample_a4d(spec, n, seed)
    return float(np.abs(net.evaluate_batch(samples.points) - samples.labels).max())


def _csv_cell(val) -> str:
    if val is None:
        return ""
    if isinstance(val, bool):
        return "true" if val else "false"
    return repr(val) if isinstance(val, float) else str(val)


@dataclass
class ExperimentReport:
    d: int
    config: dict
    rows: list[dict]

    _COLUMNS = (
        "label",
        "width",
        "final_loss",
        "best_loss",
        "population_loss",
        "population_stderr",
        "diverged",
    )

    def to_csv(self) -> str:
        cells = [[_csv_cell(row.get(c)) for c in self._COLUMNS] for row in self.rows]
        return "".join(",".join(r) + "\n" for r in [self._COLUMNS, *cells])

    def to_json(self) -> str:
        return json.dumps(
            {"d": self.d, "config": self.config, "rows": self.rows}, sort_keys=True
        )


def _row(label: str, width: int, loss: tuple, result=None) -> dict:
    """One sweep row: population loss (mean, stderr), and for a trained
    width its training ``result``, whose losses a diverged run leaves blank."""
    trained = result is not None and not result.diverged
    return {
        "label": label,
        "width": width,
        "final_loss": result.history[-1] if trained else None,
        "best_loss": result.best_loss if trained else None,
        "population_loss": loss[0],
        "population_stderr": loss[1],
        "diverged": result is not None and result.diverged,
    }


def run_separation_experiment(
    spec: instance.InstanceSpec,
    widths: list[int],
    cfg_template: training.TrainConfig,
    n_eval: int = 20_000,
    seed: int = 0,
) -> ExperimentReport:
    """Train the depth-2 baseline at each width and tabulate final losses
    next to the constant-1/2 line (exactly 1/4) and the exact depth-3 line
    (zero).  Widths are sorted ascending in the output."""

    def population_loss(net, offset):
        return training.estimate_population_loss(net, spec, n_eval, seed=seed + offset)

    exact = depth3.build_exact_relu(spec.d)
    rows = [
        _row("constant-half", 1, population_loss(training.constant_network(4 * spec.d, 0.5), 1)),
        _row("exact-depth3", max(exact.widths), population_loss(exact, 2)),
    ]
    for w in sorted(widths):
        result = training.train_depth2(spec, dataclasses.replace(cfg_template, width=w))
        loss = (None, None) if result.diverged else population_loss(result.network, 3)
        rows.append(_row(f"trained-w{w}", w, loss, result))
    return ExperimentReport(d=spec.d, config=dataclasses.asdict(cfg_template), rows=rows)


# ---------------------------------------------------------------------------
# verification battery
# ---------------------------------------------------------------------------


def _ds(ds) -> str:
    """The d values of a check, as d=1..3 for a run of three or more."""
    ds = list(ds)
    if len(ds) > 2 and ds == list(range(ds[0], ds[-1] + 1)):
        return f"d={ds[0]}..{ds[-1]}"
    return "d=" + ",".join(map(str, ds))


def _check_packing(seed: int, spec_override: str | None = None, ds=(1, 2, 3)) -> dict:
    """Build (or load) instances, which checks their packing invariants and
    support radius, and report what they hold; a built instance must also
    come out the same twice and hold the paper's invariants (4^d points,
    norms <= 0.8, pairwise distances > 0.4) against their own figures.  At
    d <= 3 the least distance is also recomputed over all pairs, and must
    be above 0.4 and equal to the packing's own figure within 1e-12."""
    if spec_override is not None:
        specs, held = [instance.spec_from_json(spec_override)], "override instance invariants"
    else:
        specs = [instance.build_instance(d, seed=seed + d) for d in ds]
        held = f"{_ds(ds)} invariants and determinism"
        for d, spec in zip(ds, specs):
            if instance.spec_to_json(spec) != instance.spec_to_json(instance.build_instance(d, seed=seed + d)):
                raise AssertionError(f"instance not deterministic at d={d}")
            p = spec.packing
            if not (spec.n_components == 4**d and p.radius_bound <= 0.8 and p.min_pairwise_distance > 0.4):
                raise AssertionError(f"d={d}: {spec.n_components} points, radius {p.radius_bound}, "
                                     f"min distance {p.min_pairwise_distance} break 4^d, <= 0.8, > 0.4")
    brute = [spec for spec in specs if spec.d <= 3]
    for spec in brute:
        least = min(math.dist(p, q) for p, q in itertools.combinations(spec.packing.points.tolist(), 2))
        if not (least > 0.4 and abs(least - spec.packing.min_pairwise_distance) <= 1e-12):
            raise AssertionError(f"d={spec.d}: least distance {least} over all pairs, packing reports "
                                 f"{spec.packing.min_pairwise_distance}; need > 0.4 and equal")
    read = "; ".join(f"d={s.d}: {s.n_components} points, min distance {s.packing.min_pairwise_distance:.4f}, "
                     f"radius {s.packing.radius_bound:.4f}, support radius {s.support_radius:.4f}"
                     for s in specs)
    checked = f"; min distance equal to the least over all pairs at {_ds(s.d for s in brute)}" if brute else ""
    return {"detail": f"{held} hold ({read}){checked}"}


def _check_centers(seed: int) -> dict:
    n = 0
    for d in (1, 2, 3):
        spec = instance.build_instance(d, seed=seed + d)
        centers = spec.centers()
        labels = instance.eval_f_batch(d, centers)
        for i in range(spec.n_components):
            bits = spec.component_bits(i)
            expected = int(np.dot(bits[:d], bits[d:])) & 1
            if labels[i] != expected:
                raise AssertionError(f"center value mismatch at d={d}, component {i}")
        n += spec.n_components
    return {"detail": f"center values equal matched-bit parity for d=1..3 ({n} centers)"}


def _check_exact_net(seed: int, ds=(1, 2, 3), n_samples: int = 20_000) -> dict:
    worst = 0.0
    for d in ds:
        spec = instance.build_instance(d, seed=seed + d)
        net = depth3.build_exact_relu(d)
        centers = spec.centers()
        err_c = float(
            np.abs(net.evaluate_batch(centers) - instance.eval_f_batch(d, centers)).max()
        )
        err_s = measure_sup_error(net, spec, n_samples, seed=seed + 10 * d)
        worst = max(worst, err_c, err_s)
    if worst > 1e-9:
        raise AssertionError(f"exact network error {worst:.2e} above 1e-9")
    return {"detail": f"max error {worst:.2e} over centers and {n_samples} samples per d, {_ds(ds)}"}


def _check_generic_net(seed: int, ds=(2,), eps_grid=(0.1,), n_samples: int = 20_000) -> dict:
    """Sup error <= eps on the samples, layer-1 width <= 40 d^2 / eps and
    layer-2 weights <= 40 d / eps^2 at every (d, eps) of the grid."""
    rows = []
    for d in ds:
        spec = instance.build_instance(d, seed=seed + 3 + d)
        for eps in eps_grid:
            report = depth3.build_generic(d, eps)
            err = measure_sup_error(report.net, spec, n_samples, seed=seed + 4 + d)
            if err > eps:
                raise AssertionError(f"generic builder sup error {err:.3f} > {eps} at d={d}")
            if report.widths[0] > 40 * d * d / eps:
                raise AssertionError(f"layer-1 width accounting violated at d={d}, eps={eps}")
            if report.max_weights[1] > 40 * d / eps**2:
                raise AssertionError(f"layer-2 weight accounting violated at d={d}, eps={eps}")
            rows.append(f"d={d}, eps={eps}: sup error {err:.4f}, widths {report.widths}")
    return {"detail": f"{'; '.join(rows)} on {n_samples} samples per d"}


def _check_compiler_scalar(seed: int) -> dict:
    net, plan = threshold.compile_scalar(networks.RELU, R=10.0, delta=0.01)
    xs = np.linspace(-10.0, 10.0, 100_001)
    err = float(np.abs(net.evaluate_batch(xs[:, None]) - np.maximum(xs, 0.0)).max())
    if err > 0.01:
        raise AssertionError(f"scalar compile error {err:.4f} > 0.01")
    if err > plan.certified_error + 1e-12:
        raise AssertionError(f"sampled error {err:.3e} above the proven bound {plan.certified_error:.3e}")
    if plan.n_segments > 2001:
        raise AssertionError(f"{plan.n_segments} segments exceed 2001")
    return {"detail": f"sampled error {err:.5f} on {xs.size} points, proven bound "
                      f"{plan.certified_error:.5f} from a {plan.grid_points}-point grid, "
                      f"{plan.n_segments} segments"}


def _dense_forward(net: networks.DenseNetwork, X: np.ndarray) -> np.ndarray:
    """A depth-2 network's output on each row of X by plain numpy products
    of its dense weights: no row blocks, factors or workspaces."""
    ((W, b),) = net.hidden
    return net.activation.fn(X @ W.T + b) @ net.out_w + net.out_b


def _check_compiler_network(seed: int, n_nets: int = 3) -> dict:
    """Compile random 8x8 ReLU nets at delta = 0.05.  Each compiled net's
    proven error must be at most delta, and its exhaustive error on {0,1}^8,
    recomputed here by a plain forward pass of both nets, at most the proven
    error (1e-12 is left for the two passes' rounding) and equal to
    boolean_cube_max_error's within 1e-9."""
    rng = np.random.default_rng(seed + 7)
    cube = instance.hypercube_enumeration(8).astype(np.float64)
    rows = []
    for k in range(n_nets):
        W = rng.uniform(-2, 2, size=(8, 8))
        b = rng.uniform(-2, 2, size=8)
        v = rng.uniform(-2, 2, size=8)
        net = networks.DenseNetwork(8, ((W, b),), v, float(rng.uniform(-2, 2)), networks.RELU)
        compiled = threshold.compile_network(net, delta=0.05)
        proven = compiled.proven_error
        exhaustive = float(np.abs(_dense_forward(net, cube) - _dense_forward(compiled, cube)).max())
        reported = threshold.boolean_cube_max_error(net, compiled)
        (width,) = compiled.widths
        row = (f"net {k}: width {width} ({width // net.widths[0]} segments per neuron), "
               f"proven {proven:.4f}, exhaustive {exhaustive:.4f}")
        if not proven <= 0.05:
            raise AssertionError(f"{row}: proven error above 0.05")
        if not exhaustive <= proven + 1e-12:
            raise AssertionError(f"{row}: exhaustive error above the proven error")
        if not abs(reported - exhaustive) <= 1e-9:
            raise AssertionError(f"{row}: boolean_cube_max_error reports {reported!r}")
        rows.append(row)
    return {"detail": f"{n_nets} random 8x8 ReLU nets compiled at delta=0.05 over their reached "
                      f"pre-activations, exhaustive error by an independent forward pass on all "
                      f"{len(cube)} inputs: {'; '.join(rows)}"}


def _check_ip_preservation(seed: int, per_d: int = 16_667) -> dict:
    ds = (1, 2, 3, 4, 5, 6)
    bad = reduction.verify_ip_preservation(per_d * len(ds), d_values=ds, seed=seed)
    if bad:
        raise AssertionError(f"{bad} parity violations")
    return {"detail": f"{per_d} randomized trials at each d in {list(ds)} with D = 100 d "
                      f"({per_d * len(ds)} in all, at most {reduction._IP_CHUNK} per randomize_batch "
                      f"call), zero parity violations"}


def _check_ip_certificate(seed: int) -> dict:
    rep = reduction.ip_preservation_certificate()
    if not rep["pass"]:
        raise AssertionError(f"parity certificate fails: {rep['failures']}")
    return {"detail": f"parity kept for all {rep['n_cases']} coordinate cases, exactly the even pads "
                      f"of {rep['n_pad_pairs']} pad pairs (D <= {rep['parameters']['max_D']}), all "
                      f"{rep['n_injections']} block placements (L <= {rep['parameters']['max_L']}) and all "
                      f"{rep['n_pair_cases']} d=2 pair cases, n_expansions={rep['n_expansions']}"}


def _float_a1_ratio(d: int, D: int) -> float:
    """The largest LHS/RHS ratio of the A1 bound over the 4-part splits of d,
    in float64: the LHS summed term by term over the compositions of D, each
    term multinomial(D; c)^2 / multinomial(D + d; c + s) from exact integer
    factorials, and the RHS exp((4/D) sum (s_i - d/4)^2) (1 + d/D)^1.5 4^(D-d)."""
    def compositions(total):
        return [(a, b, c, total - a - b - c) for a in range(total + 1) for b in range(total + 1 - a)
                for c in range(total + 1 - a - b)]

    def multinomial(parts):
        return math.factorial(sum(parts)) // math.prod(map(math.factorial, parts))

    ratios = []
    for split in compositions(d):
        lhs = math.fsum(multinomial(c) ** 2 / multinomial([ci + si for ci, si in zip(c, split)])
                        for c in compositions(D))
        spread = sum((si - d / 4) ** 2 for si in split)
        ratios.append(lhs / (math.exp(4 / D * spread) * (1 + d / D) ** 1.5 * 4.0 ** (D - d)))
    return max(ratios)


def _check_a1(seed: int, sizes=((4, 4), (4, 8), (4, 400), (8, 800))) -> dict:
    """The exact sweep at each (d, D) of sizes, and at (4, 4) and (4, 8),
    where they are among them, its reported worst ratio against a float64
    recomputation within 1e-9 relative."""
    reports = [reduction.multinomial_square_ratio_report(d, D) for d, D in sizes]
    worst = max(r["max_ratio"] for r in reports)
    if not all(r["pass"] for r in reports) or worst >= 1.0:
        raise AssertionError(f"ratio bound fails, max ratio {worst}")
    recomputed = [(size, rep) for size, rep in zip(sizes, reports) if tuple(size) in ((4, 4), (4, 8))]
    for (d, D), rep in recomputed:
        want = _float_a1_ratio(d, D)
        if abs(rep["max_ratio"] - want) > 1e-9 * want:
            raise AssertionError(f"ratio report at (d,D)=({d},{D}) gives max ratio {rep['max_ratio']!r}, "
                                 f"a float64 recomputation {want!r}")
    at = ", ".join(f"({d},{D})" for (d, D), _ in recomputed) or "no size"
    return {"detail": f"max LHS/RHS ratio {worst:.4f} at (d,D) in "
                      f"{{{','.join(f'({d},{D})' for d, D in sizes)}}}, "
                      f"n_splits={sum(r['n_splits'] for r in reports)}, "
                      f"largest D={max(D for _, D in sizes)}, {_exact(reports)}; equal to a float64 "
                      f"recomputation over every composition at {at}"}


def _exact(reports: list[dict]) -> str:
    return (f"verdict exact from n_exp_bounds={sum(r['n_exp_bounds'] for r in reports)} rational bounds "
            f"on exp, max_taylor_order={max(r['max_taylor_order'] for r in reports)}")


def _float_mgf_ratio(d: int, s: Fraction) -> float:
    """The largest E/RHS ratio of the MGF bound over the 4^d inputs, in
    float64: every mask pair (a, b) of every input (x, y) is enumerated, its
    arrangement (x^a, a, x^a, a) / (y^b, b, b, y^b) counted by cell, and
    exp(s sum_i (c_i - d)^2) averaged over the pairs."""
    bits = instance.hypercube_enumeration(2 * d)
    x, y, a, b = np.broadcast_arrays(bits[:, None, :d], bits[:, None, d:], bits[None, :, :d], bits[None, :, d:])
    cells = np.concatenate([2 * (x ^ a) + (y ^ b), 2 * a + b, 2 * (x ^ a) + b, 2 * a + (y ^ b)], axis=2)
    dev = (((cells[..., None] == np.arange(4)).sum(axis=2) - d) ** 2).sum(axis=2)
    return float(np.exp(float(s) * dev).mean(axis=1).max()) * (1 - 24 * d * float(s)) ** 2


def _check_a2(seed: int) -> dict:
    """The exact sweep at s = 1/(48 d) for d = 1..8, and at d <= 2 its
    reported worst ratio against a float64 recomputation within 1e-9 relative."""
    reports = [reduction.mgf_bound_report(d, Fraction(1, 48 * d)) for d in range(1, 9)]
    for d, rep in enumerate(reports, 1):
        if not rep["pass"]:
            raise AssertionError(f"mgf bound fails at d={d}, (x,y)={rep['worst_input']}")
        if d <= 2:
            want = _float_mgf_ratio(d, Fraction(1, 48 * d))
            if abs(rep["max_ratio"] - want) > 1e-9 * want:
                raise AssertionError(f"mgf report at d={d} gives max ratio {rep['max_ratio']!r}, "
                                     f"a float64 recomputation {want!r}")
    return {"detail": f"max E/RHS ratio {max(r['max_ratio'] for r in reports):.4f} at s=1/(48d) for d=1..8, "
                      f"n_classes={sum(r['n_classes'] for r in reports)}, {_exact(reports)}; "
                      f"equal to a float64 recomputation over every mask pair at d=1,2"}


def _brute_force_pair_law(xbits, ybits, D):
    """Exact law of the randomized pair by enumerating every mask pair,
    every admissible pad, and every permutation of the columns; feasible
    for 4d + D <= 7 or so, and independent of the count-signature law."""
    d = len(xbits)
    L = 4 * d + D
    law = defaultdict(int)
    total = 0
    pads = [
        (xp, yp)
        for xp in itertools.product((0, 1), repeat=D)
        for yp in itertools.product((0, 1), repeat=D)
        if sum(a & b for a, b in zip(xp, yp)) % 2 == 0
    ]
    perms = list(itertools.permutations(range(L)))
    for xm in itertools.product((0, 1), repeat=d):
        for ym in itertools.product((0, 1), repeat=d):
            xs = tuple(a ^ m for a, m in zip(xbits, xm))
            ys = tuple(a ^ m for a, m in zip(ybits, ym))
            for xp, yp in pads:
                A = xs + xm + xs + xm + xp
                B = ys + ym + ym + ys + yp
                for p in perms:
                    X = tuple(A[i] for i in p)
                    Y = tuple(B[i] for i in p)
                    law[(X, Y)] += 1
                    total += 1
    return {k: Fraction(v, total) for k, v in law.items()}


def _check_l2(seed: int) -> dict:
    """The exact sweep at D = 100 d, and at d = 1, D = 2 the closed form
    against the brute-force pair law: equal norms, and equal mass on
    outcomes that share a count signature (the fact the closed form rests on)."""
    reports = [reduction.l2_bound_report(d, 100 * d) for d in (1, 2, 3)]
    for d, rep in enumerate(reports, 1):
        if not (rep["pass"] and rep["bound_armed"]):
            raise AssertionError(f"l2 bound fails at d={d}, D={100 * d}, (x,y)={rep['worst_input']}")
    n_outcomes = 0
    for xy in (((0,), (1,)), ((1,), (1,))):
        law = _brute_force_pair_law(*xy, D=2)
        by_sig = defaultdict(set)
        for (X, Y), p in law.items():
            by_sig[reduction.count_signature(X, Y)].add(p)
        if any(len(v) > 1 for v in by_sig.values()):
            raise AssertionError(f"pair law of (x,y)={xy} at D=2 is not uniform on a count signature")
        if reduction.exact_l2_norm_squared(*xy, D=2) != sum(p * p for p in law.values()):
            raise AssertionError(f"closed-form l2^2 of (x,y)={xy} at D=2 differs from the brute-force law")
        n_outcomes += len(law)
    return {"detail": f"max l2^2/bound ratio {max(r['max_ratio'] for r in reports):.4f} at D=100d "
                      f"for d=1,2,3, n_classes={sum(r['n_classes'] for r in reports)}; closed form equal "
                      f"to the brute-force pair law, which is uniform on each count signature, at d=1, D=2 "
                      f"for (x,y) in {{(0,1),(1,1)}} ({n_outcomes} outcomes)"}


def _check_equivalences(seed: int, n_points: int = 2000) -> dict:
    """Within 1e-9 on n_points Gaussian inputs: an absorbed shift, an
    absorbed signed permutation with offset, and a 6-member depth-2 average;
    on all 16 Boolean inputs, the averaged network at d=2, D=16, 8 blocks
    against the mean of its base over the blocks' expanded pairs."""
    rng = np.random.default_rng(seed + 11)

    def relu_net(n_in, width, scale=1.0):
        return networks.DenseNetwork(n_in, ((rng.normal(0, scale, size=(width, n_in)), rng.normal(size=width)),),
                                     rng.normal(size=width), float(rng.normal()), networks.RELU)

    net = relu_net(4, 8)
    Z = rng.normal(size=(n_points, 4))
    c = rng.normal(size=4)
    P, b = np.diag([-1.0, 1.0, 1.0, 1.0])[:, [1, 0, 2, 3]], np.eye(4)[0]
    members = [relu_net(4, 5) for _ in range(6)]
    d, cfg = 2, reduction.ReductionConfig(d=2, D=16, n_blocks=8)
    base = relu_net(2 * cfg.expanded_dim, 6, scale=0.4)
    averaged, records = reduction.build_averaged_network(base, cfg, seed=seed + 12)
    probes = instance.hypercube_enumeration(2 * d)
    blocks = [base.evaluate_batch(np.array([np.concatenate(reduction.expand_pair(p[:d], p[d:], rec))
                                            for p in probes], dtype=np.float64)) for rec in records]
    err = max(
        np.abs(networks.absorb_input_map(net, np.eye(4), c).evaluate_batch(Z) - net.evaluate_batch(Z + c)).max(),
        np.abs(networks.absorb_input_map(net, P, b).evaluate_batch(Z) - net.evaluate_batch(Z @ P.T + b)).max(),
        np.abs(networks.average_ensemble(members, [1 / 6] * 6).evaluate_batch(Z)
               - np.mean([m.evaluate_batch(Z) for m in members], axis=0)).max(),
        np.abs(averaged.evaluate_batch(probes.astype(np.float64)) - np.mean(blocks, axis=0)).max(),
    )
    if err > 1e-9:
        raise AssertionError(f"structural equivalence error {err:.2e}")
    return {"detail": f"max equivalence error {err:.2e} over a shift, a signed permutation and a 6-member "
                      f"average on {n_points} points, and an averaged network (d=2, D=16, 8 blocks) on "
                      f"all {len(probes)} Boolean inputs"}


def _central_difference_gradient(params, X, y, activation, h=1e-5):
    """Central differences of the batch loss in every entry of
    ``params.arrays``, flattened in that order (the analytic gradient's
    ``arrays`` concatenated)."""
    num = []
    for arr in params.arrays:
        flat = arr.ravel()
        for i in range(flat.size):
            old = flat[i]
            flat[i] = old + h
            lp, _ = training.loss_and_gradients(params, X, y, activation)
            flat[i] = old - h
            lm, _ = training.loss_and_gradients(params, X, y, activation)
            flat[i] = old
            num.append((lp - lm) / (2 * h))
    return np.asarray(num)


def _check_gradient(seed: int, n_in: int = 5, width: int = 6, n_rows: int = 16) -> dict:
    rng = np.random.default_rng(seed + 13)
    params = training.Depth2Params.init(n_in, width, rng)
    X = rng.normal(size=(n_rows, n_in))
    y = rng.normal(size=n_rows)
    _, g = training.loss_and_gradients(params, X, y, "sigmoid")
    flat_g = np.concatenate([a.ravel() for a in g.arrays])
    num = _central_difference_gradient(params, X, y, "sigmoid")
    rel = float(np.linalg.norm(flat_g - num) / max(np.linalg.norm(flat_g), 1e-12))
    if rel > 1e-4:
        raise AssertionError(f"gradient relative error {rel:.2e}")
    return {"detail": f"analytic vs central differences relative error {rel:.2e} over {num.size} "
                      f"parameters of a {n_in}-input width-{width} sigmoid net on {n_rows} rows"}


def _check_baseline(seed: int, n_seeds: int = 1, n_samples: int = 4000) -> dict:
    """A constant 1/2 has loss exactly 1/4 on any {0,1}-valued target, so
    the loss must be 0.25 with stderr 0 on every sample drawn."""
    spec = instance.build_instance(1, seed=seed + 17)
    net = training.constant_network(4, 0.5)
    for k in range(seed + 18, seed + 18 + n_seeds):
        mean, se = training.estimate_population_loss(net, spec, n_samples, seed=k)
        if mean != 0.25 or se != 0.0:
            raise AssertionError(f"constant-half loss {mean!r} (stderr {se:.2e}) on the samples of seed {k}, "
                                 f"where a constant 1/2 on a {{0,1}}-valued target gives exactly 0.25 and 0")
    return {"detail": f"constant-half loss exactly 0.25 with stderr 0 on {n_seeds} x {n_samples} samples "
                      f"at d=1: the target is {{0,1}}-valued on the sampled support"}


_CHECKS = {
    "packing": _check_packing,
    "centers": _check_centers,
    "exact-net": _check_exact_net,
    "generic-net": _check_generic_net,
    "compiler-scalar": _check_compiler_scalar,
    "compiler-network": _check_compiler_network,
    "ip-preservation": _check_ip_preservation,
    "ip-certificate": _check_ip_certificate,
    "a1": _check_a1,
    "a2": _check_a2,
    "l2": _check_l2,
    "equivalences": _check_equivalences,
    "gradient": _check_gradient,
    "baseline": _check_baseline,
}

CHECK_NAMES = tuple(_CHECKS)


def verify_all(seed: int = 0, only=None, spec_override=None) -> dict:
    """Run the verification battery; returns a JSON-ready summary with one
    entry per check and an overall pass flag.  Each entry carries its wall
    time ``elapsed_s``; a failed one also the exception type as ``error``.
    ``spec_override``, an instance's JSON text, replaces the packing
    check's instances."""
    names = CHECK_NAMES if not only else tuple(only)
    unknown = [n for n in names if n not in _CHECKS]
    if unknown:
        raise ValueError(f"unknown checks: {unknown}; valid: {list(CHECK_NAMES)}")
    results = []
    for name in names:
        start = time.perf_counter()
        try:
            args = (seed, spec_override) if name == "packing" else (seed,)
            entry = {"pass": True, **_CHECKS[name](*args)}
        except Exception as exc:  # noqa: BLE001 - aggregate and report
            entry = {"pass": False, "error": type(exc).__name__, "detail": str(exc)}
        results.append({"name": name, **entry, "elapsed_s": time.perf_counter() - start})
    return {"seed": seed, "pass": all(r["pass"] for r in results), "checks": results}
