"""Command-line interface.

Subcommands: build-instance, eval, compile-threshold, reduce,
verify-lemmas, train-baseline, report, verify-all.  Outputs are JSON
reports and CSV tables (UTF-8, header row, decimal point); identical flags
and seeds produce byte-identical files.
"""

from __future__ import annotations

import dataclasses
import json
import re
import sys
from fractions import Fraction
from pathlib import Path

import click
import numpy as np

from . import harness, instance, networks, reduction, threshold, training
from .bits import _positive, _sizes


def _write(path: str | None, text: str) -> None:
    """Write text to the file at path, or echo it when path is None, empty or '-'."""
    if not path or path == "-":
        click.echo(text, nl=not text.endswith("\n"))
    else:
        Path(path).write_text(text, encoding="utf-8")


def _load(path: str, option: str, parse=str):
    """Parse a file's text; a missing file or malformed content is a usage error."""
    try:
        return parse(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise click.BadParameter(f"{path!r}: {exc}", param_hint=option) from exc


_SEED = click.IntRange(min=0)
_SIZE = click.IntRange(min=1)
_INSTANCE_D = click.IntRange(min=1, max=instance.MAX_SUPPORTED_D)  # the packing's storage cap


def _positive_finite(ctx, param, value):
    try:
        return _positive(**{param.name: value})[0]
    except ValueError as exc:
        raise click.BadParameter(str(exc)) from exc


def _width_list(ctx, param, value):
    """Comma-separated positive widths, at least one."""
    try:
        widths = [_sizes(width=int(t))[0] for t in value.split(",") if t.strip()]
    except ValueError as exc:
        raise click.BadParameter(f"{value!r}: {exc}") from exc
    if not widths:
        raise click.BadParameter(f"{value!r} must list at least one positive width")
    return widths


@click.group()
def main():
    """Verification lab for the hard-parity construction."""


@main.command("build-instance")
@click.option("--d", "d", type=_INSTANCE_D, required=True, help="Pair-count parameter; input dim is 4d.")
@click.option("--seed", type=_SEED, default=0, show_default=True)
@click.option("--max-attempts", type=_SIZE, default=None, help="Greedy packing proposal budget.")
@click.option("--out", type=str, default="-", help="Instance JSON path ('-' for stdout).")
@click.option("--samples", type=click.IntRange(min=0), default=0,
              help="Also draw this many support samples.")
@click.option("--samples-out", type=str, default=None, help="CSV path for the samples.")
def build_instance_cmd(d, seed, max_attempts, out, samples, samples_out):
    """Construct the packing, matching, and support description."""
    try:
        spec = instance.build_instance(d, seed=seed, max_attempts=max_attempts)
    except instance.PackingInfeasible as exc:
        raise click.BadParameter(str(exc), param_hint="--max-attempts") from exc
    _write(out, instance.spec_to_json(spec))
    if samples > 0:
        batch = instance.sample_a4d(spec, samples, seed=seed + 1)
        _write(samples_out or "-", instance.samples_to_csv(batch))


@main.command("eval")
@click.option("--d", "d", type=_SIZE, default=None, help="Evaluate the hard target at dimension d.")
@click.option("--net", "net_path", type=str, default=None, help="Evaluate a network JSON instead.")
@click.option("--point", "points", type=str, multiple=True, required=True,
              help="Comma-separated coordinates; repeatable.")
def eval_cmd(d, net_path, points):
    """Evaluate the hard target or a serialized network at given points."""
    if (d is None) == (net_path is None):
        raise click.UsageError("pass exactly one of --d or --net")
    if net_path is not None:
        net = _load(net_path, "--net", networks.network_from_json)
    vals = []
    for text in points:
        try:
            p = np.array([float(t) for t in text.split(",")])
            if not np.isfinite(p).all():
                raise ValueError("coordinates must be finite")
            vals.append(instance.eval_f(d, p) if d is not None else net.evaluate(p))
        except ValueError as exc:
            raise click.BadParameter(f"{text!r}: {exc}", param_hint="--point") from exc
    click.echo(json.dumps({"values": vals}, sort_keys=True))


@main.command("compile-threshold")
@click.option("--net", "net_path", type=str, required=True, help="Depth-2 network JSON.")
@click.option("--delta", type=float, required=True, callback=_positive_finite,
              help="Target sup accuracy on the Boolean cube.")
@click.option("--out", type=str, default="-", help="Compiled network JSON path.")
@click.option("--report", "report_path", type=str, default=None, help="JSON report path.")
def compile_threshold_cmd(net_path, delta, out, report_path):
    """Compile a depth-2 network into a depth-2 threshold network."""
    net = _load(net_path, "--net", networks.network_from_json)
    if net.depth != 2:
        raise click.BadParameter(f"{net_path!r}: a depth-{net.depth} network; only depth-2 networks "
                                 "are compiled", param_hint="--net")
    try:
        compiled = threshold.compile_network(net, delta)
    except threshold.BudgetExceeded as exc:  # a staircase grid or segment count past its cap
        raise click.BadParameter(str(exc), param_hint="--delta") from exc
    _write(out, networks.network_to_json(compiled))
    report = {
        "delta": delta,
        "width_in": list(net.widths),
        "width_out": list(compiled.widths),
        "segments_per_neuron": compiled.widths[0] // max(net.widths[0], 1),
        "max_weight_out": compiled.max_weight,
    }
    if net.input_dim <= threshold._MAX_CUBE_DIM:
        report["certified_error"] = threshold.boolean_cube_max_error(net, compiled)
    _write(report_path, json.dumps(report, sort_keys=True))


@main.command("reduce")
@click.option("--d", "d", type=_SIZE, required=True)
@click.option("--D", "big_d", type=_SIZE, default=None, help="Padding length; defaults to 100 d.")
@click.option("--blocks", type=_SIZE, default=8, show_default=True)
@click.option("--seed", type=_SEED, default=0, show_default=True)
@click.option("--base", "base_path", type=str, default=None,
              help="Depth-2 base network JSON on 2(4d+D) inputs; random if omitted.")
@click.option("--base-width", type=_SIZE, default=8, show_default=True)
@click.option("--out", type=str, default=None, help="Averaged network JSON path.")
def reduce_cmd(d, big_d, blocks, seed, base_path, base_width, out):
    """Build the averaged re-randomized network and spot-check parity."""
    cfg = reduction.ReductionConfig(d=d, D=big_d, n_blocks=blocks)
    if base_path:
        base = _load(base_path, "--base", networks.network_from_json)
    else:
        rng = np.random.default_rng([seed, 99])
        n_in = 2 * cfg.expanded_dim
        base = networks.DenseNetwork(
            n_in,
            ((rng.normal(0, 0.5, size=(base_width, n_in)), rng.normal(0, 0.5, size=base_width)),),
            rng.normal(0, 0.5, size=base_width),
            0.0,
            networks.RELU,
        )
    try:
        averaged, records = reduction.build_averaged_network(base, cfg, seed=seed)
        bound = reduction.output_bound(base)
        blocks_needed = reduction.hoeffding_block_count(bound, d)
    except ValueError as exc:  # a --base network of the wrong depth or input size, or bounded by 0
        raise click.BadParameter(str(exc), param_hint="--base") from exc
    if out:
        _write(out, networks.network_to_json(averaged))
    rng = np.random.default_rng([seed, 100])
    n_check = 200
    xs = rng.integers(0, 2, size=(n_check, d), dtype=np.int8)
    ys = rng.integers(0, 2, size=(n_check, d), dtype=np.int8)
    worst = 0.0
    for x, y in zip(xs, ys):
        direct = np.mean(
            [base.evaluate(np.concatenate(reduction.expand_pair(x, y, rec)).astype(float))
             for rec in records]
        )
        via_net = averaged.evaluate(np.concatenate([x, y]).astype(float))
        worst = max(worst, abs(direct - via_net))
    report = {
        "d": d,
        "D": cfg.D,
        "blocks": blocks,
        "width": list(averaged.widths),
        "block_equivalence_error": worst,
        "base_output_bound": bound,
        "hoeffding_blocks_for_union_bound": blocks_needed,
        "bound_armed": cfg.bound_armed,
    }
    click.echo(json.dumps(report, sort_keys=True))


def _spec_ints(option: str, text: str, pattern: str) -> list[list[int]]:
    """Positive integer lists captured by the groups of a lemma spec."""
    match = re.fullmatch(pattern, text.replace(" ", ""))
    if match is None:
        raise click.BadParameter(f"cannot parse {text!r}", param_hint=option)
    try:
        return [[_sizes(value=int(t))[0] for t in g.split(",")] for g in match.groups()]
    except ValueError as exc:
        raise click.BadParameter(f"{text!r}: {exc}", param_hint=option) from exc


@main.command("verify-lemmas")
@click.option("--a1", "a1_spec", type=str, default=None,
              help="Ratio bound sweep as 'd1,d2x D1,D2,...', e.g. '4,8x4,8,16'.")
@click.option("--a2", "a2_spec", type=str, default=None,
              help=f"MGF bound sweep as 'd<=K' (s defaults to 1/(48 d)); K is at most {reduction._MAX_A2_D}.")
@click.option("--l2", "l2_spec", type=str, default=None,
              help="Exact norm check as 'd=1,D=100'.")
@click.option("--out", type=str, default=None, help="JSON report path.")
def verify_lemmas_cmd(a1_spec, a2_spec, l2_spec, out):
    """Exact-arithmetic verification of the combinatorial bounds."""
    if not any((a1_spec, a2_spec, l2_spec)):
        raise click.UsageError("pass at least one of --a1 / --a2 / --l2")
    jobs = []  # (lemma, size check, report, arguments)
    if a1_spec:
        ds, Ds = _spec_ints("--a1", a1_spec, r"(\d+(?:,\d+)*),?x(\d+(?:,\d+)*),?")
        jobs += [("a1", reduction.check_a1_size, reduction.multinomial_square_ratio_report, (d, D))
                 for d in ds for D in Ds]
    if a2_spec:
        [[k]] = _spec_ints("--a2", a2_spec, r"d<=(\d+)")
        jobs += [("a2", reduction.check_a2_size, reduction.mgf_bound_report, (d, Fraction(1, 48 * d)))
                 for d in range(1, k + 1)]
    if l2_spec:
        [d], [D] = _spec_ints("--l2", l2_spec, r"d=(\d+),D=(\d+)")
        jobs.append(("l2", reduction.check_l2_size, reduction.l2_bound_report, (d, D)))
    for lemma, check, _, args in jobs:  # every size is checked before any report runs
        try:
            check(*args)
        except (ValueError, reduction.EnumerationBudget) as exc:
            raise click.BadParameter(str(exc), param_hint=f"--{lemma}") from exc
    reports = [{"lemma": lemma, **run(*args)} for lemma, _, run, args in jobs]
    ok = bool(reports) and all(r["pass"] for r in reports)
    doc = json.dumps({"reports": reports, "pass": ok}, sort_keys=True)
    _write(out, doc)
    if not ok:
        sys.exit(1)


def _load_train_config(config_path: str | None, **overrides) -> training.TrainConfig:
    """TrainConfig from an optional JSON object, overridden by the flags given;
    an unknown field or a bad value is a usage error."""
    base = _load(config_path, "--config", json.loads) if config_path else {}
    flags = {k: v for k, v in overrides.items() if v is not None}
    try:
        return training.TrainConfig(**{**base, **flags})
    except (TypeError, ValueError) as exc:
        raise click.BadParameter(str(exc), param_hint="--config") from exc


_CONFIG_SEED_HELP = "Overrides the --config file's seed (which defaults to 0)."


@main.command("train-baseline")
@click.option("--d", "d", type=_INSTANCE_D, required=True)
@click.option("--width", type=_SIZE, default=None)
@click.option("--epochs", type=_SIZE, default=None)
@click.option("--seed", type=_SEED, default=None, help=_CONFIG_SEED_HELP)
@click.option("--config", "config_path", type=str, default=None, help="TrainConfig JSON file.")
@click.option("--out", type=str, default=None, help="JSON report path.")
def train_baseline_cmd(d, width, epochs, seed, config_path, out):
    """Train the depth-2 baseline and report losses."""
    cfg = _load_train_config(config_path, width=width, epochs=epochs, seed=seed)
    spec = instance.build_instance(d, seed=cfg.seed)
    result = training.train_depth2(spec, cfg)
    report = {
        "config": dataclasses.asdict(cfg),
        "d": d,
        "history": result.history,
        "best_loss": result.best_loss,
        "diverged": result.diverged,
    }
    if not result.diverged:
        mean, se = training.estimate_population_loss(result.network, spec, 20_000, seed=cfg.seed + 1)
        report["population_loss"] = mean
        report["population_stderr"] = se
    doc = json.dumps(report, sort_keys=True)
    _write(out, doc)


@main.command("report")
@click.option("--d", "d", type=_INSTANCE_D, required=True)
@click.option("--widths", type=str, default="4,16,64", show_default=True, callback=_width_list)
@click.option("--epochs", type=_SIZE, default=None)
@click.option("--seed", type=_SEED, default=None, help=_CONFIG_SEED_HELP)
@click.option("--config", "config_path", type=str, default=None, help="TrainConfig JSON file.")
@click.option("--out", type=str, required=True, help="Output prefix; writes <out>.csv and <out>.json.")
def report_cmd(d, widths, epochs, seed, config_path, out):
    """Width sweep with trivial and exact reference rows."""
    cfg = _load_train_config(config_path, width=1, epochs=epochs, seed=seed)
    spec = instance.build_instance(d, seed=cfg.seed)
    rep = harness.run_separation_experiment(spec, widths, cfg, seed=cfg.seed)
    Path(out + ".csv").write_text(rep.to_csv(), encoding="utf-8")
    Path(out + ".json").write_text(rep.to_json(), encoding="utf-8")
    click.echo(f"wrote {out}.csv and {out}.json")


@main.command("verify-all")
@click.option("--seed", type=_SEED, default=0, show_default=True)
@click.option("--only", type=str, default=None,
              help=f"Comma-separated subset of: {', '.join(harness.CHECK_NAMES)}.")
@click.option("--instance", "instance_path", type=str, default=None,
              help="Run the packing checks against this instance JSON.")
@click.option("--out", type=str, default=None, help="JSON summary path.")
def verify_all_cmd(seed, only, instance_path, out):
    """Run the full verification battery; nonzero exit on any failure."""
    only_list = [t for t in only.split(",") if t] if only else None
    text = _load(instance_path, "--instance") if instance_path else None
    try:
        summary = harness.verify_all(seed=seed, only=only_list, spec_override=text)
    except ValueError as exc:  # an unknown check name; failed checks are reported, not raised
        raise click.BadParameter(str(exc), param_hint="--only") from exc
    doc = json.dumps(summary, sort_keys=True, indent=2)
    _write(out, doc)
    if not summary["pass"]:
        sys.exit(1)


if __name__ == "__main__":
    main()
