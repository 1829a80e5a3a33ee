"""The three workloads: inputs made from a seed, and the operations of a pass.

An operation is one checked unit.  Its ``run`` calls the program and is
timed as part of the pass; its ``check`` judges the output with the
independent oracles after the pass, outside the timed region, and returns
the problem sizes it saw.  ``run`` may read what earlier operations of the
same pass left in ``ctx`` (instances, support samples).

The program is reached only through module attributes (``instance.sample_a4d``
and so on), so that the traced run sees every call.  Each workload also has
a speed probe: fixed work of the same kind that never calls the program.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from depthsep import depth3, harness, instance, networks, reduction, threshold, training

import oracles as O
from oracles import require


@dataclass(frozen=True)
class Op:
    name: str
    run: Callable[[dict], object]
    check: Callable[[object], dict]


def _seeds(seed: int, tag: int, n: int) -> list[int]:
    rng = np.random.default_rng([seed, tag])
    return [int(s) for s in rng.integers(0, 2**31, size=n)]


# ---------------------------------------------------------------------------
# construct: packings, depth-3 builders, threshold compilers, a width sweep
# ---------------------------------------------------------------------------

INSTANCE_DS = (1, 2, 3, 4, 5, 6)
EXACT_DS = (1, 2, 3, 4)
GENERIC = tuple((d, eps) for d in (1, 2, 3) for eps in (0.5, 0.1, 0.05))
THRESHOLD_GENERIC = (1, 0.2)
SAMPLES = 10_000  # support rows per sample batch and per sup-error measurement
CHECK_ROWS = 2_000  # rows the oracle evaluates itself
STAIRCASE_R, STAIRCASE_DELTA = 10.0, 0.01
STAIRCASE_GRID = np.linspace(-STAIRCASE_R, STAIRCASE_R, 100_001)
NET_INPUTS, NET_DELTA, N_NETS = 8, 0.05, 2
SWEEP_D, SWEEP_WIDTHS, SWEEP_EPOCHS, SWEEP_EVAL = 2, (4, 16, 64), 3, 20_000


def construct_inputs(seed: int) -> dict:
    seeds = _seeds(seed, 1, 32)
    rng = np.random.default_rng([seed, 2])
    nets = [
        networks.DenseNetwork(
            NET_INPUTS,
            ((rng.uniform(-2, 2, (NET_INPUTS, NET_INPUTS)), rng.uniform(-2, 2, NET_INPUTS)),),
            rng.uniform(-2, 2, NET_INPUTS),
            float(rng.uniform(-2, 2)),
            networks.RELU,
        )
        for _ in range(N_NETS)
    ]
    return {
        "instance_seed": {d: seeds[d] for d in INSTANCE_DS},
        "sample_seed": {d: seeds[10 + d] for d in EXACT_DS},
        "sup_seed": seeds[20],
        "sweep_seed": seeds[21],
        "nets": nets,
        "cube": O.cube(NET_INPUTS),
    }


def _instance_op(d: int, seed: int) -> Op:
    def run(ctx):
        ctx["spec", d] = instance.build_instance(d, seed=seed)
        return ctx["spec", d]

    def check(spec):
        n = 4**d
        pts = np.asarray(spec.packing.points)
        require(pts.shape == (n, 2 * d), f"d={d}: packing shape {pts.shape}")
        norm = float(np.sqrt((pts**2).sum(axis=1)).max())
        require(norm <= 0.8, f"d={d}: packing norm {norm} > 0.8")
        dist = O.min_pairwise_distance(pts)
        require(dist > 0.4, f"d={d}: min pairwise distance {dist} <= 0.4")
        require(sorted(spec.matching.tolist()) == list(range(n)), f"d={d}: matching not a bijection")
        return {"d": d, "points": n}

    return Op(f"instance d={d}", run, check)


def _exact_op(d: int, seed: int) -> Op:
    def run(ctx):
        spec = ctx["spec", d]
        net = depth3.build_exact_relu(d)
        centers = spec.centers()
        batch = instance.sample_a4d(spec, SAMPLES, seed)
        ctx["batch", d] = batch
        return {
            "spec": spec,
            "net": net,
            "centers": centers,
            "center_f": instance.eval_f_batch(d, centers),
            "center_pred": net.evaluate_batch(centers),
            "batch": batch,
            "pred": net.evaluate_batch(batch.points),
        }

    def check(o):
        spec, batch, net = o["spec"], o["batch"], o["net"]
        labels = O.component_labels(spec.matching, d)
        centers = O.component_centers(spec.packing.points, spec.matching, d)
        require(np.abs(o["centers"] - centers).max() <= 1e-12, f"d={d}: component centers differ")
        require(np.array_equal(o["center_f"], labels), f"d={d}: target wrong on a center")
        err = float(np.abs(o["center_pred"] - labels).max())
        require(err <= 1e-9, f"d={d}: exact net off by {err} on a center")
        comp = batch.component_index
        require(np.array_equal(batch.labels, labels[comp]), f"d={d}: sample label != decoded parity")
        off = batch.points - centers[comp]
        edge = 1.0 / (12.0 * math.sqrt(d))
        require(off.min() >= -1e-12 and off.max() <= edge + 1e-12, f"d={d}: sample outside its cube")
        err = float(np.abs(o["pred"] - labels[comp]).max())
        require(err <= 1e-9, f"d={d}: exact net off by {err} on a sample")
        mine = O.forward(net, batch.points[:CHECK_ROWS])
        err = float(np.abs(mine - o["pred"][:CHECK_ROWS]).max())
        require(err <= 1e-9, f"d={d}: evaluate_batch differs from the weights by {err}")
        return {"d": d, "widths": list(net.widths), "samples": len(batch), "centers": len(labels)}

    return Op(f"exact-net d={d}", run, check)


def _generic_op(d: int, eps: float, seed: int, staircase: bool = False) -> Op:
    def run(ctx):
        if staircase:
            report = depth3.build_generic(d, eps, threshold.threshold_1d_approximator)
        else:
            report = depth3.build_generic(d, eps)
        err = harness.measure_sup_error(report.net, ctx["spec", d], SAMPLES, seed)
        return report, err, ctx["spec", d], ctx["batch", d]

    def check(o):
        report, err, spec, batch = o
        net = report.net
        require(err <= eps, f"d={d}, eps={eps}: measured sup error {err} > eps")
        require(tuple(report.widths) == net.widths, f"d={d}, eps={eps}: reported widths differ")
        if not staircase:
            width1 = net.hidden[0][0].shape[0]
            require(width1 <= 40 * d * d / eps, f"d={d}, eps={eps}: layer-1 width {width1}")
            w2 = O.layer_max_weight(*net.hidden[1])
            require(w2 <= 40 * d / eps**2, f"d={d}, eps={eps}: layer-2 weight {w2}")
        labels = O.component_labels(spec.matching, d)[batch.component_index[:CHECK_ROWS]]
        mine = float(np.abs(O.forward(net, batch.points[:CHECK_ROWS]) - labels).max())
        require(mine <= eps, f"d={d}, eps={eps}: oracle sup error {mine} > eps")
        return {"d": d, "eps": eps, "widths": list(net.widths), "samples": SAMPLES}

    kind = "generic-threshold" if staircase else "generic"
    return Op(f"{kind} d={d} eps={eps}", run, check)


def _staircase_op(tag: str) -> Op:
    truth = {"relu": lambda z: np.maximum(z, 0.0), "sigmoid": lambda z: 1.0 / (1.0 + np.exp(-z))}[tag]
    # segment budget 2 c (1 + 2R)^alpha / delta + 1 with the variation profile
    # (c, alpha) = (1, 1) for the ReLU and (1, 0) for the sigmoid
    alpha = 1 if tag == "relu" else 0
    budget = math.floor(2.0 * (1.0 + 2.0 * STAIRCASE_R) ** alpha / STAIRCASE_DELTA) + 1

    def run(ctx):
        sigma = networks.RELU if tag == "relu" else networks.SIGMOID
        net, plan = threshold.compile_scalar(sigma, STAIRCASE_R, STAIRCASE_DELTA)
        return net, plan, net.evaluate_batch(STAIRCASE_GRID[:, None])

    def check(o):
        net, plan, values = o
        err = float(np.abs(values - truth(STAIRCASE_GRID)).max())
        require(err <= STAIRCASE_DELTA, f"{tag} staircase error {err} > {STAIRCASE_DELTA}")
        require(plan.n_segments <= budget, f"{tag}: {plan.n_segments} segments > budget {budget}")
        sub = STAIRCASE_GRID[::50]
        diff = float(np.abs(O.forward(net, sub[:, None]) - values[::50]).max())
        require(diff <= 1e-9, f"{tag}: evaluate_batch differs from the weights by {diff}")
        return {"segments": plan.n_segments, "width": net.widths[0], "grid": len(values)}

    return Op(f"staircase {tag}", run, check)


def _compile_net_op(k: int, net, cube: np.ndarray) -> Op:
    def run(ctx):
        compiled = threshold.compile_network(net, NET_DELTA)
        err = threshold.boolean_cube_max_error(net, compiled)
        bits = threshold.to_circuit(compiled).evaluate_batch(cube)
        return compiled, err, bits

    def check(o):
        compiled, err, bits = o
        require(compiled.activation.tag == "threshold" and compiled.depth == 2, f"net {k}: not depth-2 threshold")
        out = O.forward(compiled, cube)
        mine = float(np.abs(O.forward(net, cube) - out).max())
        require(err <= NET_DELTA and mine <= NET_DELTA, f"net {k}: cube error {err} / {mine} > {NET_DELTA}")
        near = np.abs(out - 0.5) < 1e-9
        require(((bits == (out >= 0.5)) | near).all(), f"net {k}: circuit decode differs")
        return {"inputs": NET_INPUTS, "compiled_width": compiled.widths[0]}

    return Op(f"compile-net {k}", run, check)


def _sweep_op(seed: int) -> Op:
    cfg = training.TrainConfig(width=SWEEP_WIDTHS[0], epochs=SWEEP_EPOCHS, seed=seed)

    def run(ctx):
        return harness.run_separation_experiment(
            ctx["spec", SWEEP_D], list(SWEEP_WIDTHS), cfg, n_eval=SWEEP_EVAL, seed=seed
        )

    def check(report):
        rows = {r["label"]: r for r in report.rows}
        require(len(report.rows) == 2 + len(SWEEP_WIDTHS), "sweep: wrong row count")
        loss = rows["constant-half"]["population_loss"]
        require(loss == 0.25, f"sweep: constant-1/2 loss {loss} != 1/4")
        loss = rows["exact-depth3"]["population_loss"]
        require(loss == 0.0, f"sweep: exact depth-3 loss {loss} != 0")
        for w in SWEEP_WIDTHS:
            r = rows[f"trained-w{w}"]
            ok = r["diverged"] or (math.isfinite(r["population_loss"]) and r["population_loss"] >= 0)
            require(ok, f"sweep: width {w} loss {r['population_loss']}")
        steps = SWEEP_EPOCHS * math.ceil(cfg.samples_per_epoch / cfg.batch_size)
        return {"d": SWEEP_D, "widths": list(SWEEP_WIDTHS), "steps_per_width": steps, "eval_samples": SWEEP_EVAL}

    return Op(f"sweep d={SWEEP_D}", run, check)


def construct_ops(inp: dict) -> list[Op]:
    ops = [_instance_op(d, inp["instance_seed"][d]) for d in INSTANCE_DS]
    ops += [_exact_op(d, inp["sample_seed"][d]) for d in EXACT_DS]
    ops += [_generic_op(d, eps, inp["sup_seed"]) for d, eps in GENERIC]
    ops.append(_generic_op(*THRESHOLD_GENERIC, inp["sup_seed"], staircase=True))
    ops += [_staircase_op("relu"), _staircase_op("sigmoid")]
    ops += [_compile_net_op(k, net, inp["cube"]) for k, net in enumerate(inp["nets"])]
    ops.append(_sweep_op(inp["sweep_seed"]))
    return ops


# ---------------------------------------------------------------------------
# randomize: the sampling half of the reduction
# ---------------------------------------------------------------------------

RANDOMIZE_DS = (1, 2, 3, 4, 5, 6)
BATCH_ROWS = 10_000  # rows per d through randomize_batch
PER_ROW = 200  # rows per d through draw_record + expand_pair
TV_D, TV_BIGD, TV_ROWS, TV_FAIL = 1, 2, 40_000, 1e-12
AVG_D, AVG_WIDTH, AVG_BLOCKS = 2, 16, 256


def randomize_inputs(seed: int) -> dict:
    seeds = _seeds(seed, 3, 32)
    rng = np.random.default_rng([seed, 4])
    bits = lambda *shape: rng.integers(0, 2, size=shape, dtype=np.int8)  # noqa: E731
    n_in = 2 * (4 * AVG_D + 100 * AVG_D)
    base = networks.DenseNetwork(
        n_in,
        ((rng.normal(0.0, 0.3, (AVG_WIDTH, n_in)), rng.normal(0.0, 1.0, AVG_WIDTH)),),
        rng.normal(0.0, 1.0, AVG_WIDTH),
        0.0,
        networks.RELU,
    )
    return {
        "batch": {d: (bits(BATCH_ROWS, d), bits(BATCH_ROWS, d), seeds[d]) for d in RANDOMIZE_DS},
        "rows": {d: (bits(PER_ROW, d), bits(PER_ROW, d), seeds[10 + d]) for d in RANDOMIZE_DS},
        "tv": (bits(TV_D), bits(TV_D), seeds[20]),
        "avg": (base, seeds[21]),
        "all_pairs": O.cube(2 * AVG_D),
    }


def _batch_op(d: int, xs, ys, seed: int) -> Op:
    D = 100 * d

    def run(ctx):
        return reduction.randomize_batch(xs, ys, D, np.random.default_rng(seed))

    def check(o):
        X, Y = o
        require(X.shape == Y.shape == (len(xs), 4 * d + D), f"d={d}: output shape {X.shape}")
        require(min(X.min(), Y.min()) >= 0 and max(X.max(), Y.max()) <= 1, f"d={d}: non-bit output")
        bad = int((O.parity(X, Y) != O.parity(xs, ys)).sum())
        require(bad == 0, f"d={d}: {bad} pairs changed parity")
        return {"d": d, "D": D, "trials": len(xs)}

    return Op(f"randomize-batch d={d}", run, check)


def _tv_op(x, y, seed: int) -> Op:
    xs, ys = np.tile(x, (TV_ROWS, 1)), np.tile(y, (TV_ROWS, 1))

    def run(ctx):
        return reduction.randomize_batch(xs, ys, TV_BIGD, np.random.default_rng(seed))

    def check(o):
        law = O.brute_force_signature_law(x, y, TV_BIGD)
        sigs, counts = np.unique(O.signature_counts(*o), axis=0, return_counts=True)
        seen = {tuple(int(v) for v in s): c / TV_ROWS for s, c in zip(sigs, counts)}
        l1 = sum(abs(seen.get(s, 0.0) - float(p)) for s, p in law.items())
        l1 += sum(p for s, p in seen.items() if s not in law)
        bound = O.total_variation_bound(len(law) + 1, TV_ROWS, TV_FAIL)
        require(l1 / 2 <= bound, f"signature law TV {l1 / 2:.4f} > {bound:.4f}")
        return {"d": TV_D, "D": TV_BIGD, "trials": TV_ROWS, "signatures": len(law), "tv_bound": bound}

    return Op(f"signature-law d={TV_D} D={TV_BIGD}", run, check)


def _expanded(x, y, rec) -> tuple[np.ndarray, np.ndarray]:
    X, Y = O.arrangement(x, y, rec.x_mask, rec.y_mask, rec.x_pad, rec.y_pad)
    return X[rec.perm], Y[rec.perm]


def _per_row_op(d: int, xs, ys, seed: int) -> Op:
    D = 100 * d

    def run(ctx):
        rng = np.random.default_rng(seed)
        out = []
        for x, y in zip(xs, ys):
            rec = reduction.draw_record(d, D, rng)
            out.append((rec, *reduction.expand_pair(x, y, rec)))
        return out

    def check(o):
        for (rec, X, Y), x, y in zip(o, xs, ys):
            require(sorted(rec.perm.tolist()) == list(range(4 * d + D)), f"d={d}: perm not a permutation")
            require(int((rec.x_pad & rec.y_pad).sum()) % 2 == 0, f"d={d}: odd pad")
            mX, mY = _expanded(x, y, rec)
            require(np.array_equal(X, mX) and np.array_equal(Y, mY), f"d={d}: expand_pair differs")
            require(O.parity(X, Y) == O.parity(x, y), f"d={d}: parity changed")
        return {"d": d, "D": D, "trials": len(xs)}

    return Op(f"draw-record d={d}", run, check)


def _averaged_op(base, seed: int, pairs: np.ndarray) -> Op:
    d, D = AVG_D, 100 * AVG_D

    def run(ctx):
        cfg = reduction.ReductionConfig(d=d, D=D, n_blocks=AVG_BLOCKS)
        net, records = reduction.build_averaged_network(base, cfg, seed)
        return net, records, net.evaluate_batch(pairs), reduction.output_bound(net)

    def check(o):
        net, records, values, bound = o
        require(len(records) == AVG_BLOCKS, "averaged: wrong block count")
        require(net.widths == (AVG_BLOCKS * AVG_WIDTH,) and net.input_dim == 2 * d, "averaged: wrong shape")
        bits = pairs.astype(np.int8)
        expanded = np.array(
            [np.concatenate(_expanded(p[:d], p[d:], rec)) for rec in records for p in bits],
            dtype=np.float64,
        )
        mean = O.forward(base, expanded).reshape(len(records), len(pairs)).mean(axis=0)
        err = float(np.abs(values - mean).max())
        require(err <= 1e-9, f"averaged: differs from the block mean by {err}")
        err = float(np.abs(O.forward(net, pairs) - values).max())
        require(err <= 1e-9, f"averaged: evaluate_batch differs from the weights by {err}")
        require(float(np.abs(values).max()) <= bound, f"averaged: output above bound {bound}")
        return {"d": d, "D": D, "blocks": AVG_BLOCKS, "width": net.widths[0], "inputs": len(pairs)}

    return Op(f"averaged-network d={d} D={D}", run, check)


def randomize_ops(inp: dict) -> list[Op]:
    ops = [_batch_op(d, *inp["batch"][d]) for d in RANDOMIZE_DS]
    ops.append(_tv_op(*inp["tv"]))
    ops += [_per_row_op(d, *inp["rows"][d]) for d in RANDOMIZE_DS]
    ops.append(_averaged_op(*inp["avg"], inp["all_pairs"]))
    return ops


# ---------------------------------------------------------------------------
# exact-laws: exact count laws, the L2 oracle and the two analytic bounds
# ---------------------------------------------------------------------------

L2_BIGD = 100
L2_SMALL_DS = (1, 2, 3)  # small D compared with full brute-force enumeration
LAW_D, LAW_BIGD, LAW_TINY_BIGD = 2, 24, 2
A1_GRID = tuple((d, D) for d in (4, 8) for D in (4, 8, 12, 16))
A2_DS = (1, 2, 3)
A2_FLOAT_MAX_D = 2


def _bit_pairs(d: int) -> list[tuple[list[int], list[int]]]:
    vecs = [[(i >> j) & 1 for j in range(d)] for i in range(2**d)]
    return [(x, y) for x in vecs for y in vecs]


def exact_laws_inputs(seed: int) -> dict:
    # every input pair of each size is swept, so the seed changes nothing
    return {"l2_pairs": _bit_pairs(1), "law_pairs": _bit_pairs(LAW_D)}


def _l2_op(x, y, D: int, brute: dict) -> Op:
    def run(ctx):
        return reduction.exact_l2_norm_squared(x, y, D)

    def check(value):
        unit = Fraction(1, 4 ** (4 * len(x) + D))
        require(unit <= value <= 64 * unit, f"l2 x={x} y={y} D={D}: {float(value / unit)} x uniform")
        if D in L2_SMALL_DS:
            key = (tuple(x), tuple(y), D)
            if key not in brute:
                brute[key] = O.brute_force_l2(x, y, D)
            require(value == brute[key], f"l2 x={x} y={y} D={D}: differs from brute force")
        return {"d": len(x), "D": D, "ratio_to_uniform": float(value / unit)}

    return Op(f"l2 x={x} y={y} D={D}", run, check)


def _law_op(x, y) -> Op:
    def run(ctx):
        return (
            reduction.exact_count_distribution(x, y, LAW_BIGD),
            reduction.exact_count_distribution(x, y, LAW_TINY_BIGD),
        )

    def check(o):
        for law, D in zip(o, (LAW_BIGD, LAW_TINY_BIGD)):
            N = 4 * len(x) + D
            require(law.total_length == N, f"law x={x} y={y} D={D}: length {law.total_length}")
            require(sum(law.numerators.values()) == law.denominator, f"law x={x} y={y} D={D}: mass != 1")
            require(all(sum(s) == N and min(s) >= 0 for s in law.numerators), f"law x={x} y={y} D={D}: bad signature")
        brute = O.brute_force_signature_law(x, y, LAW_TINY_BIGD)
        tiny = {s: Fraction(n, o[1].denominator) for s, n in o[1].numerators.items() if n}
        require(tiny == brute, f"law x={x} y={y} D={LAW_TINY_BIGD}: differs from brute force")
        return {"d": len(x), "D": LAW_BIGD, "signatures": len(o[0].numerators)}

    return Op(f"count-law x={x} y={y}", run, check)


def _a1_op(d: int, D: int) -> Op:
    def run(ctx):
        return reduction.multinomial_square_ratio_report(d, D)

    def check(rep):
        mine = O.a1_ratios(d, D)
        top = max(mine.values())
        require(rep["pass"] and top < 1.0, f"a1 d={d} D={D}: bound fails")
        require(rep["n_splits"] == len(mine), f"a1 d={d} D={D}: {rep['n_splits']} splits")
        require(abs(rep["max_ratio"] - top) <= 1e-9 * top, f"a1 d={d} D={D}: max ratio {rep['max_ratio']} vs {top}")
        worst = mine[tuple(rep["worst_split"])]
        require(abs(worst - top) <= 1e-9 * top, f"a1 d={d} D={D}: worst split is not the max")
        return {"d": d, "D": D, "splits": len(mine), "terms": len(mine) * math.comb(D + 3, 3)}

    return Op(f"a1 d={d} D={D}", run, check)


def _a2_op(d: int) -> Op:
    s = Fraction(1, 48 * d)

    def run(ctx):
        return reduction.mgf_bound_report(d, s)

    def check(rep):
        require(rep["pass"] and rep["max_ratio"] <= 1.0, f"a2 d={d}: bound fails")
        require(rep["n_inputs"] == 4**d, f"a2 d={d}: {rep['n_inputs']} inputs")
        if d <= A2_FLOAT_MAX_D:
            top = max(O.a2_ratios(d, s).values())
            require(abs(rep["max_ratio"] - top) <= 1e-9 * top, f"a2 d={d}: max ratio {rep['max_ratio']} vs {top}")
        return {"d": d, "inputs": rep["n_inputs"], "terms": rep["n_inputs"] * 4**d}

    return Op(f"a2 d={d}", run, check)


def exact_laws_ops(inp: dict) -> list[Op]:
    brute: dict = {}  # brute-force norms, computed once per run on first use
    ops = [_l2_op(x, y, L2_BIGD, brute) for x, y in inp["l2_pairs"]]
    ops += [_l2_op(x, y, D, brute) for D in L2_SMALL_DS for x, y in inp["l2_pairs"]]
    ops += [_law_op(x, y) for x, y in inp["law_pairs"]]
    ops += [_a1_op(d, D) for d, D in A1_GRID]
    ops += [_a2_op(d) for d in A2_DS]
    return ops


# ---------------------------------------------------------------------------
# speed probes: fixed work of each workload's kind that never calls the
# program, timed between passes to follow the machine's speed (see run.py)
# ---------------------------------------------------------------------------


def _probe_dense() -> None:
    """Wide dense ReLU layers and a proposal loop, like construct."""
    rng = np.random.default_rng(0)
    X, W1, W2 = rng.random((2000, 12)), rng.random((1440, 12)), rng.random((280, 1440))
    points = rng.random((256, 12))
    np.maximum(np.maximum(X @ W1.T - 3.0, 0.0) @ W2.T - 1.0, 0.0)
    for i in range(1500):
        (np.linalg.norm(points - points[i % 256], axis=1) > 0.4).all()


def _probe_sampler() -> None:
    """Bit draws, a row-wise permutation and a gather, like randomize."""
    rng = np.random.default_rng(0)
    bits = rng.integers(0, 2, (6000, 424), dtype=np.int8)
    perm = rng.permuted(np.broadcast_to(np.arange(424), (6000, 424)), axis=1)
    (np.take_along_axis(bits, perm, axis=1) & bits).sum(axis=1)


def _probe_exact() -> None:
    """Big-integer Fraction sums, like exact-laws."""
    acc = Fraction(0)
    for _ in range(10):
        for k in range(1, 300):
            acc += Fraction(math.comb(400, k) ** 2, math.comb(500, k + 3))


WORKLOADS = {
    "construct": (construct_inputs, construct_ops, _probe_dense),
    "randomize": (randomize_inputs, randomize_ops, _probe_sampler),
    "exact-laws": (exact_laws_inputs, exact_laws_ops, _probe_exact),
}

# median time of each speed probe on the machine the README's figures come
# from; run.py scales pass_s and setup_s to that machine's speed, and these
# values must not change once runs have been compared against them
PROBE_REFERENCE_S = {"construct": 0.095, "randomize": 0.125, "exact-laws": 0.1}


def make_inputs(name: str, seed: int) -> dict:
    return WORKLOADS[name][0](seed)


def make_ops(name: str, inputs: dict) -> list[Op]:
    return WORKLOADS[name][1](inputs)


def speed_probe(name: str) -> Callable[[], None]:
    return WORKLOADS[name][2]
