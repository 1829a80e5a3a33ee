"""Acceptance suite: one test per exit criterion.

Each test prints a single PASS/FAIL line with the measured quantity and
its runtime against the stated budget.  Run with ``pytest -s
tests/test_acceptance.py`` to see the lines as they complete.
"""

import time
from collections import defaultdict
from fractions import Fraction

import numpy as np

from oracle_utils import brute_force_pair_law, central_difference_gradient

from depthsep import (
    RELU,
    DenseNetwork,
    absorb_input_map,
    average_ensemble,
    build_exact_relu,
    build_generic,
    build_instance,
    build_packing,
    eval_f_batch,
)
from depthsep.harness import measure_sup_error
from depthsep.reduction import (
    ReductionConfig,
    build_averaged_network,
    count_signature,
    exact_l2_norm_squared,
    expand_pair,
    mgf_bound_report,
    multinomial_square_ratio_report,
    verify_ip_preservation,
)
from depthsep.threshold import boolean_cube_max_error, compile_network, compile_scalar
from depthsep.training import (
    Depth2Params,
    constant_network,
    estimate_population_loss,
    loss_and_gradients,
)


def finish(name: str, t0: float, budget_s: float, ok: bool, detail: str) -> None:
    elapsed = time.time() - t0
    status = "PASS" if ok and elapsed < budget_s else "FAIL"
    print(f"{status}  {name}  [{elapsed:.1f}s / budget {budget_s:.0f}s]  {detail}")
    assert ok, f"{name}: {detail}"
    assert elapsed < budget_s, f"{name}: runtime {elapsed:.1f}s over budget {budget_s}s"


def test_criterion_01_exact_depth3_network():
    t0 = time.time()
    worst = 0.0
    for d in (1, 2, 3, 4):
        spec = build_instance(d, seed=1000 + d)
        net = build_exact_relu(d)
        centers = spec.centers()
        err_centers = float(
            np.abs(net.evaluate_batch(centers) - eval_f_batch(d, centers)).max()
        )
        err_samples = measure_sup_error(net, spec, 100_000, seed=1)
        worst = max(worst, err_centers, err_samples)
    finish(
        "criterion 1: exact depth-3 network (d=1..4)",
        t0,
        60,
        worst <= 1e-9,
        f"max |net - f| = {worst:.2e} over all centers and 1e5 samples per d",
    )


def test_criterion_02_generic_depth3_builder():
    t0 = time.time()
    c_width, c_weight = 40.0, 40.0
    worst_err_margin = -np.inf
    details = []
    ok = True
    for d in (1, 2, 3):
        spec = build_instance(d, seed=2000 + d)
        for eps in (0.5, 0.1, 0.05):
            report = build_generic(d, eps)
            err = measure_sup_error(report.net, spec, 100_000, seed=2)
            ok = ok and err <= eps
            ok = ok and report.widths[0] <= c_width * d * d / eps
            ok = ok and report.max_weights[1] <= c_weight * d / eps**2
            worst_err_margin = max(worst_err_margin, err / eps)
            details.append(f"d={d},eps={eps}:err={err:.3f},w1={report.widths[0]}")
    finish(
        "criterion 2: generic depth-3 builder (relu approximator)",
        t0,
        300,
        ok,
        f"max err/eps = {worst_err_margin:.2f}; width1 <= {c_width} d^2/eps, "
        f"layer2 weights <= {c_weight} d/eps^2 across the sweep",
    )


def test_criterion_03_scalar_threshold_compiler():
    t0 = time.time()
    net, plan = compile_scalar(RELU, R=10.0, delta=0.01)
    xs = np.linspace(-10.0, 10.0, 100_000)
    err = float(np.abs(net.evaluate_batch(xs[:, None]) - np.maximum(xs, 0.0)).max())
    ok = err <= 0.01 and plan.n_segments <= 2001
    finish(
        "criterion 3: scalar threshold compiler (relu, delta=0.01)",
        t0,
        60,
        ok,
        f"dense-grid sup error {err:.5f} <= 0.01, segments {plan.n_segments} <= 2001",
    )


def test_criterion_04_network_threshold_compiler():
    t0 = time.time()
    rng = np.random.default_rng(44)
    worst = 0.0
    for _ in range(20):
        net = DenseNetwork(
            8,
            ((rng.uniform(-2, 2, size=(8, 8)), rng.uniform(-2, 2, size=8)),),
            rng.uniform(-2, 2, size=8),
            float(rng.uniform(-2, 2)),
            RELU,
        )
        compiled = compile_network(net, delta=0.05)
        worst = max(worst, boolean_cube_max_error(net, compiled))
    finish(
        "criterion 4: network threshold compiler (20 nets, delta=0.05)",
        t0,
        120,
        worst <= 0.05,
        f"max exhaustive error over {{0,1}}^8 = {worst:.4f} <= 0.05",
    )


def test_criterion_05_ip_preservation():
    t0 = time.time()
    violations = verify_ip_preservation(1_000_000, seed=5)
    finish(
        "criterion 5: parity preservation of the randomization",
        t0,
        60,
        violations == 0,
        f"{violations} violations in 1e6 trials across d=1..6",
    )


def test_criterion_06_l2_norm_oracle():
    t0 = time.time()
    bound = Fraction(64, 4**104)
    worst = Fraction(0)
    ok = True
    for xb in ((0,), (1,)):
        for yb in ((0,), (1,)):
            val = exact_l2_norm_squared(xb, yb, D=100)
            ok = ok and val <= bound
            worst = max(worst, val / bound)
    # conditional uniformity, exhaustively at d=1, D=2: equal signatures
    # get equal mass, and the closed form reproduces the brute-force norm
    for xb, yb in (((0,), (1,)), ((1,), (1,))):
        law = brute_force_pair_law(xb, yb, D=2)
        by_sig = defaultdict(set)
        for (X, Y), p in law.items():
            by_sig[count_signature(X, Y)].add(p)
        ok = ok and all(len(v) == 1 for v in by_sig.values())
        brute = sum(p * p for p in law.values())
        ok = ok and exact_l2_norm_squared(xb, yb, D=2) == brute
    finish(
        "criterion 6: exact L2-norm oracle vs 64 * 4^-(4d+D)",
        t0,
        600,
        ok,
        f"max l2^2/bound = {float(worst):.4f} at d=1, D=100; "
        "conditional uniformity exhaustive at d=1, D=2",
    )


def test_criterion_07_multinomial_ratio_bound():
    t0 = time.time()
    worst = 0.0
    ok = True
    for d in (4, 8):
        for D in (4, 8, 12, 16):
            report = multinomial_square_ratio_report(d, D)
            ok = ok and report["pass"]
            worst = max(worst, report["max_ratio"])
    finish(
        "criterion 7: multinomial square-ratio bound, all splits",
        t0,
        300,
        ok and worst < 1.0,
        f"max exact-LHS / RHS ratio = {worst:.4f} < 1 over (d,D) in {{4,8}}x{{4,8,12,16}}",
    )


def test_criterion_08_mgf_bound():
    t0 = time.time()
    worst = 0.0
    ok = True
    for d in range(1, 9):
        report = mgf_bound_report(d, Fraction(1, 48 * d))
        ok = ok and report["pass"]
        worst = max(worst, report["max_ratio"])
    finish(
        "criterion 8: mask-signature MGF bound (every input by type class, d=1..8)",
        t0,
        120,
        ok,
        f"max E/RHS ratio = {worst:.4f} at s = 1/(48d), tolerance 1+1e-10",
    )


def test_criterion_09_trivial_baseline():
    t0 = time.time()
    spec = build_instance(1, seed=900)
    net = constant_network(4, 0.5)
    ok = True
    worst_dev = 0.0
    for seed in range(20):
        mean, se = estimate_population_loss(net, spec, 2000, seed=seed)
        dev = abs(mean - 0.25)
        worst_dev = max(worst_dev, dev)
        ok = ok and dev <= 4 * se + 1e-15
    finish(
        "criterion 9: constant-1/2 baseline loss",
        t0,
        60,
        ok,
        f"max |loss - 0.25| = {worst_dev:.2e} over 20 seeds (pointwise exact)",
    )


def test_criterion_10_structural_equivalences_and_gradient():
    t0 = time.time()
    rng = np.random.default_rng(10)
    err = 0.0

    net = DenseNetwork(
        4,
        ((rng.normal(size=(8, 4)), rng.normal(size=8)),),
        rng.normal(size=8),
        0.25,
        RELU,
    )
    Z = rng.normal(size=(10_000, 4))
    c = rng.normal(size=4)
    shifted = absorb_input_map(net, np.eye(4), c)
    err = max(err, float(np.abs(shifted.evaluate_batch(Z) - net.evaluate_batch(Z + c)).max()))

    P = np.diag([-1.0, 1.0, 1.0, 1.0])[:, [1, 0, 2, 3]]
    b = np.array([1.0, 0.0, 0.0, 0.0])
    mapped = absorb_input_map(net, P, b)
    err = max(
        err,
        float(np.abs(mapped.evaluate_batch(Z) - net.evaluate_batch(Z @ P.T + b)).max()),
    )

    members = [
        DenseNetwork(
            4,
            ((rng.normal(size=(5, 4)), rng.normal(size=5)),),
            rng.normal(size=5),
            float(rng.normal()),
            RELU,
        )
        for _ in range(6)
    ]
    avg = average_ensemble(members, [1 / 6] * 6)
    direct = np.mean([m.evaluate_batch(Z) for m in members], axis=0)
    err = max(err, float(np.abs(avg.evaluate_batch(Z) - direct).max()))

    d, D = 2, 16
    cfg = ReductionConfig(d=d, D=D, n_blocks=8)
    base = DenseNetwork(
        2 * (4 * d + D),
        ((rng.normal(0, 0.4, size=(6, 2 * (4 * d + D))), rng.normal(size=6)),),
        rng.normal(size=6),
        0.0,
        RELU,
    )
    averaged, records = build_averaged_network(base, cfg, seed=3)
    probes = rng.integers(0, 2, size=(1000, 2 * d)).astype(np.float64)
    acc = np.zeros(1000)
    for rec in records:
        expanded = np.array(
            [
                np.concatenate(expand_pair(p[:d].astype(np.int8), p[d:].astype(np.int8), rec))
                for p in probes
            ],
            dtype=np.float64,
        )
        acc += base.evaluate_batch(expanded)
    err = max(err, float(np.abs(averaged.evaluate_batch(probes) - acc / len(records)).max()))

    params = Depth2Params.init(6, 5, rng)
    X = rng.normal(size=(32, 6))
    y = rng.normal(size=32)
    _, g = loss_and_gradients(params, X, y, "sigmoid")
    analytic = np.concatenate([a.ravel() for a in g.arrays])
    numeric = central_difference_gradient(params, X, y, "sigmoid")
    rel = float(np.linalg.norm(analytic - numeric) / np.linalg.norm(analytic))

    ok = err <= 1e-9 and rel <= 1e-4
    finish(
        "criterion 10: structural equivalences and gradient check",
        t0,
        120,
        ok,
        f"max equivalence error {err:.2e} <= 1e-9; gradient rel error {rel:.2e} <= 1e-4",
    )


def test_criterion_11_packing_invariants():
    t0 = time.time()
    ok = True
    details = []
    for d in (1, 2, 3, 4, 5):
        p = build_packing(d, seed=1100 + d)
        ok = ok and p.n_points == 4**d
        norms = np.linalg.norm(p.points, axis=1)
        ok = ok and norms.max() <= 0.8
        ok = ok and p.min_pairwise_distance > 0.4
        again = build_packing(d, seed=1100 + d)
        ok = ok and np.array_equal(p.points, again.points)
        details.append(f"d={d}:{p.min_pairwise_distance:.3f}")
    finish(
        "criterion 11: packing invariants and determinism (d<=5)",
        t0,
        120,
        ok,
        "2^{2d} points, norms <= 0.8, min pairwise distances " + " ".join(details),
    )
