"""Experiment driver: width sweeps, sup-error measurement, and the
all-in-one verification battery behind ``verify-all``."""

from __future__ import annotations

import dataclasses
import json
import time
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


def _check_packing(seed: int, spec_override: str | None = None) -> dict:
    """Build (or load) instances, which checks their packing invariants and
    support radius, and report what they hold; a built instance must also
    come out the same twice."""
    if spec_override is not None:
        specs, held = [instance.spec_from_json(spec_override)], "override instance invariants"
    else:
        specs = [instance.build_instance(d, seed=seed + d) for d in (1, 2, 3)]
        held = "d=1..3 invariants and determinism"
        for d, spec in enumerate(specs, 1):
            if instance.spec_to_json(spec) != instance.spec_to_json(instance.build_instance(d, seed=seed + d)):
                raise AssertionError(f"instance not deterministic at d={d}")
    read = "; ".join(f"d={s.d}: {s.n_components} points, min distance {s.packing.min_pairwise_distance:.4f}, "
                     f"radius {s.packing.radius_bound:.4f}, support radius {s.support_radius:.4f}"
                     for s in specs)
    return {"detail": f"{held} hold ({read})"}


def _check_centers(seed: int) -> dict:
    for d in (1, 2, 3):
        spec = instance.build_instance(d, seed=seed + d)
        centers = spec.centers()
        labels = instance.eval_f_batch(d, centers)
        for i in range(spec.n_components):
            bits = spec.component_bits(i)
            expected = int(np.dot(bits[:d], bits[d:])) & 1
            if labels[i] != expected:
                raise AssertionError(f"center value mismatch at d={d}, component {i}")
    return {"detail": "center values equal matched-bit parity for d=1..3"}


def _check_exact_net(seed: int) -> dict:
    worst = 0.0
    for d in (1, 2, 3):
        spec = instance.build_instance(d, seed=seed + d)
        net = depth3.build_exact_relu(d)
        centers = spec.centers()
        err_c = float(
            np.abs(net.evaluate_batch(centers) - instance.eval_f_batch(d, centers)).max()
        )
        err_s = measure_sup_error(net, spec, 20_000, seed=seed + 10 * d)
        worst = max(worst, err_c, err_s)
    if worst > 1e-9:
        raise AssertionError(f"exact network error {worst:.2e} above 1e-9")
    return {"detail": f"max error {worst:.2e} over centers and samples, d=1..3"}


def _check_generic_net(seed: int) -> dict:
    d, eps = 2, 0.1
    spec = instance.build_instance(d, seed=seed + 5)
    report = depth3.build_generic(d, eps)
    err = measure_sup_error(report.net, spec, 20_000, seed=seed + 6)
    if err > eps:
        raise AssertionError(f"generic builder sup error {err:.3f} > {eps}")
    if report.widths[0] > 40 * d * d / eps:
        raise AssertionError("layer-1 width accounting violated")
    if report.max_weights[1] > 40 * d / eps**2:
        raise AssertionError("layer-2 weight accounting violated")
    return {"detail": f"d={d}, eps={eps}: sup error {err:.4f}, widths {report.widths}"}


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


def _check_compiler_network(seed: int) -> dict:
    rng = np.random.default_rng(seed + 7)
    worst = 0.0
    for _ in range(3):
        W = rng.uniform(-2, 2, size=(8, 8))
        b = rng.uniform(-2, 2, size=8)
        v = rng.uniform(-2, 2, size=8)
        net = networks.DenseNetwork(8, ((W, b),), v, float(rng.uniform(-2, 2)), networks.RELU)
        compiled = threshold.compile_network(net, delta=0.05)
        worst = max(worst, threshold.boolean_cube_max_error(net, compiled))
    if worst > 0.05:
        raise AssertionError(f"network compile error {worst:.4f} > 0.05")
    return {"detail": f"max exhaustive error {worst:.4f} over 3 random nets"}


def _check_ip_preservation(seed: int) -> dict:
    ds, per_d = (1, 2, 3, 4, 5, 6), 16_667
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


def _check_a1(seed: int) -> dict:
    sizes = ((4, 4), (4, 8), (4, 400), (8, 800))
    reports = [reduction.multinomial_square_ratio_report(d, D) for d, D in sizes]
    worst = max(r["max_ratio"] for r in reports)
    if not all(r["pass"] for r in reports) or worst >= 1.0:
        raise AssertionError(f"ratio bound fails, max ratio {worst}")
    n_splits = sum(r["n_splits"] for r in reports)
    return {"detail": f"max LHS/RHS ratio {worst:.4f} at (d,D) in {{(4,4),(4,8),(4,400),(8,800)}}, "
                      f"n_splits={n_splits}, largest D={max(D for _, D in sizes)}"}


def _check_a2(seed: int) -> dict:
    worst, n_classes = 0.0, 0
    for d in range(1, 9):
        rep = reduction.mgf_bound_report(d, Fraction(1, 48 * d))
        if not rep["pass"]:
            raise AssertionError(f"mgf bound fails at d={d}, (x,y)={rep['worst_input']}")
        worst, n_classes = max(worst, rep["max_ratio"]), n_classes + rep["n_classes"]
    return {"detail": f"max E/RHS ratio {worst:.4f} for d=1..8, n_classes={n_classes}"}


def _check_l2(seed: int) -> dict:
    worst, n_classes = 0.0, 0
    for d in (1, 2, 3):
        rep = reduction.l2_bound_report(d, 100 * d)
        if not (rep["pass"] and rep["bound_armed"]):
            raise AssertionError(f"l2 bound fails at d={d}, D={100 * d}, (x,y)={rep['worst_input']}")
        worst, n_classes = max(worst, rep["max_ratio"]), n_classes + rep["n_classes"]
    return {"detail": f"max l2^2/bound ratio {worst:.4f} at D=100d for d=1,2,3, n_classes={n_classes}"}


def _check_equivalences(seed: int) -> dict:
    rng = np.random.default_rng(seed + 11)
    W = rng.normal(size=(8, 4))
    b = rng.normal(size=8)
    v = rng.normal(size=8)
    net = networks.DenseNetwork(4, ((W, b),), v, 0.3, networks.RELU)
    Z = rng.normal(size=(2000, 4))
    c = rng.normal(size=4)
    shifted = networks.absorb_input_map(net, np.eye(4), c)
    err = float(np.abs(shifted.evaluate_batch(Z) - net.evaluate_batch(Z + c)).max())
    P = np.eye(4)[[1, 0, 3, 2]]
    mapped = networks.absorb_input_map(net, P, np.zeros(4))
    err = max(err, float(np.abs(mapped.evaluate_batch(Z) - net.evaluate_batch(Z @ P.T)).max()))
    avg = networks.average_ensemble([net, net], [0.5, 0.5])
    err = max(err, float(np.abs(avg.evaluate_batch(Z) - net.evaluate_batch(Z)).max()))
    if err > 1e-9:
        raise AssertionError(f"structural equivalence error {err:.2e}")
    return {"detail": f"max equivalence error {err:.2e}"}


def _check_gradient(seed: int) -> dict:
    rng = np.random.default_rng(seed + 13)
    params = training.Depth2Params.init(5, 6, rng)
    X = rng.normal(size=(16, 5))
    y = rng.normal(size=16)
    _, g = training.loss_and_gradients(params, X, y, "sigmoid")
    flat_g = np.concatenate([a.ravel() for a in g.arrays])
    h = 1e-5
    num = []
    for arr in params.arrays:
        flat = arr.ravel()
        for i in range(flat.size):
            old = flat[i]
            flat[i] = old + h
            lp, _ = training.loss_and_gradients(params, X, y, "sigmoid")
            flat[i] = old - h
            lm, _ = training.loss_and_gradients(params, X, y, "sigmoid")
            flat[i] = old
            num.append((lp - lm) / (2 * h))
    rel = float(np.linalg.norm(flat_g - np.asarray(num)) / max(np.linalg.norm(flat_g), 1e-12))
    if rel > 1e-4:
        raise AssertionError(f"gradient relative error {rel:.2e}")
    return {"detail": f"analytic vs central differences relative error {rel:.2e}"}


def _check_baseline(seed: int) -> dict:
    spec = instance.build_instance(1, seed=seed + 17)
    net = training.constant_network(4, 0.5)
    mean, se = training.estimate_population_loss(net, spec, 4000, seed=seed + 18)
    if abs(mean - 0.25) > 4 * se + 1e-12:
        raise AssertionError(f"constant-half loss {mean} not within 4 se of 0.25")
    return {"detail": f"constant-half loss {mean} (stderr {se:.2e})"}


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
