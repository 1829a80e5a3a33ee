"""CLI surface: every subcommand, file outputs, exit codes."""

import hashlib
import json
import os
import subprocess
import sys
from math import comb
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from depthsep import instance, networks, reduction, threshold
from depthsep.cli import main


@pytest.fixture()
def runner():
    return CliRunner()


def invoke(runner, args, expect_exit=0):
    result = runner.invoke(main, args, catch_exceptions=False)
    assert result.exit_code == expect_exit, result.output
    return result


SMALL_NET = networks.network_to_json(
    networks.DenseNetwork(2, ((np.ones((1, 2)), np.zeros(1)),), np.ones(1), 0.0, networks.RELU)
)
# a depth-2 base for reduce --d 1 --D 2 (2 (4d + D) = 12 inputs) whose output bound is 0
ZERO_NET = networks.network_to_json(
    networks.DenseNetwork(12, ((np.zeros((2, 12)), np.zeros(2)),), np.zeros(2), 0.0, networks.RELU)
)
TOO_BIG_D = str(instance.MAX_SUPPORTED_D + 1)
# an instance whose matching holds a number beyond int64, a network with a weight beyond float64
_SPEC_DOC = json.loads(instance.spec_to_json(instance.build_instance(1, seed=4)))
HUGE_MATCHING = json.dumps({**_SPEC_DOC, "matching": [0, 1, 2, 10**30]})
HUGE_WEIGHT = json.dumps({**json.loads(SMALL_NET), "layers": [{"W": [[10**400, 1.0]], "b": [0.0]}]})
# network documents with a field that is not the JSON type it should be
NOT_OBJECTS = ["[2]", *(json.dumps({**json.loads(SMALL_NET), **field})
                        for field in ({"layers": [5]}, {"output": 7}, {"layers": 5}, {"activation": ["relu"]}))]


def _broken_network_file(tmp_path, fault):
    """Path to a network file that is missing, lacks its layers, or holds a NaN weight."""
    p = tmp_path / "net.json"
    if fault == "missing":
        return p
    doc = json.loads(SMALL_NET)
    if fault == "schema":
        del doc["layers"]
    else:
        doc["layers"][0]["W"][0][0] = float("nan")
    p.write_text(json.dumps(doc))
    return p


@pytest.mark.parametrize("fault", ["missing", "schema", "nan"])
@pytest.mark.parametrize(
    "args, option",
    [
        (["eval", "--point", "1,2", "--net"], "--net"),
        (["compile-threshold", "--delta", "0.1", "--net"], "--net"),
        (["reduce", "--d", "1", "--D", "2", "--base"], "--base"),
    ],
)
def test_bad_network_file_is_a_usage_error(runner, tmp_path, fault, args, option):
    path = _broken_network_file(tmp_path, fault)
    result = runner.invoke(main, [*args, str(path)], catch_exceptions=False)
    assert result.exit_code == 2, result.output
    assert option in result.output
    if fault == "schema":
        assert "'layers'" in result.output


@pytest.mark.parametrize(
    "args, contents, option",
    [
        (["verify-all", "--only", "packing", "--instance"], None, "--instance"),
        (["train-baseline", "--d", "1", "--config"], None, "--config"),
        (["report", "--d", "1", "--out", "OUT", "--config"], None, "--config"),
        (["reduce", "--d", "1", "--D", "2", "--base"], SMALL_NET, "--base"),
        (["train-baseline", "--d", "1", "--config"], '{"width": 2, "bogus": 1}', "--config"),
        (["train-baseline", "--d", "1", "--config"], '{"width": 0}', "--config"),
        (["train-baseline", "--d", "1", "--config"], '{"width": 2.5}', "--config"),
        (["train-baseline", "--d", "1", "--config"], '{"width": 2, "activation": "tanh"}', "--config"),
        (["train-baseline", "--d", "1", "--config"], "[2]", "--config"),
        (["train-baseline", "--d", "1", "--config"], "{", "--config"),
        (["report", "--d", "1", "--out", "OUT", "--config"], '{"optimizer": "lbfgs"}', "--config"),
        *(
            ([cmd, "--d", "1", *out, "--config"], bad, "--config")
            for cmd, out in (("train-baseline", ()), ("report", ("--out", "OUT")))
            for bad in (
                '{"width": 2, "activation": "threshold"}',
                '{"width": 2, "learning_rate": NaN}',
                '{"width": 2, "learning_rate": Infinity}',
                '{"width": 2, "weight_clip": NaN}',
                '{"width": 2, "weight_clip": Infinity}',
            )
        ),
        (["train-baseline", "--d", "1", "--config"], '{"width": 2, "seed": -1}', "--config"),
        (["report", "--d", "1", "--out", "OUT", "--config"], '{"seed": 1.5}', "--config"),
        (["train-baseline", "--d", "1", "--config"], '{"width": 2, "seed": true}', "--config"),
        (["reduce", "--d", "1", "--D", "2", "--base"], ZERO_NET, "--base"),
        (["verify-all", "--only", "packing", "--instance"], HUGE_MATCHING, "--instance"),
        (["eval", "--point", "1,2", "--net"], HUGE_WEIGHT, "--net"),
        *(
            (args, bad, option)
            for args, option in (
                (["eval", "--point", "1,2", "--net"], "--net"),
                (["compile-threshold", "--delta", "0.1", "--net"], "--net"),
                (["reduce", "--d", "1", "--D", "2", "--base"], "--base"),
            )
            for bad in NOT_OBJECTS
        ),
    ],
)
def test_bad_input_file_is_a_usage_error(runner, tmp_path, args, contents, option):
    """A missing file, a wrong-size base network, a config with an unknown
    field or a bad value, a JSON number out of range and a network field of
    the wrong JSON type exit 2 naming the option, with no traceback."""
    path = tmp_path / "input.json"
    if contents is not None:
        path.write_text(contents)
    args = [str(tmp_path / "out") if a == "OUT" else a for a in args]
    result = runner.invoke(main, [*args, str(path)], catch_exceptions=False)
    assert result.exit_code == 2, result.output
    assert option in result.output and "Traceback" not in result.output
    assert not (tmp_path / "out.json").exists()


@pytest.mark.parametrize(
    "args, option",
    [
        (["reduce", "--d", "0"], "--d"),
        (["reduce", "--d", "1", "--D", "0"], "--D"),
        (["reduce", "--d", "1", "--blocks", "0"], "--blocks"),
        (["train-baseline", "--d", "1", "--width", "0"], "--width"),
        (["train-baseline", "--d", "1"], "width"),
        (["report", "--d", "1", "--epochs", "0", "--out", "unused"], "--epochs"),
        (["build-instance", "--d", "0"], "--d"),
        (["build-instance", "--d", "1", "--seed", "-1"], "--seed"),
        (["build-instance", "--d", "1", "--max-attempts", "0"], "--max-attempts"),
        (["build-instance", "--d", "1", "--samples", "-2"], "--samples"),
        (["train-baseline", "--d", "1", "--width", "2", "--seed", "-1"], "--seed"),
        (["train-baseline", "--d", "0", "--width", "2"], "--d"),
        (["compile-threshold", "--net", "NET", "--delta", "0"], "--delta"),
        (["compile-threshold", "--net", "NET", "--delta", "nan"], "--delta"),
        (["compile-threshold", "--net", "NET", "--delta", "inf"], "--delta"),
        (["report", "--d", "1", "--widths", "2,x", "--out", "OUT"], "--widths"),
        (["report", "--d", "1", "--widths", "2,0", "--out", "OUT"], "--widths"),
        (["report", "--d", "1", "--widths", ",", "--out", "OUT"], "--widths"),
        (["report", "--d", "0", "--out", "OUT"], "--d"),
        (["report", "--d", "1", "--seed", "-1", "--out", "OUT"], "--seed"),
        (["reduce", "--d", "1", "--seed", "-1"], "--seed"),
        (["reduce", "--d", "1", "--base-width", "0"], "--base-width"),
        (["verify-all", "--seed", "-1", "--only", "baseline"], "--seed"),
        (["eval", "--d", "0", "--point", "1"], "--d"),
        (["build-instance", "--d", TOO_BIG_D], "--d"),
        (["report", "--d", TOO_BIG_D, "--out", "OUT"], "--d"),
        (["train-baseline", "--d", TOO_BIG_D, "--width", "2"], "--d"),
        (["build-instance", "--d", "3", "--max-attempts", "5"], "--max-attempts"),
    ],
)
def test_bad_flag_is_a_usage_error(runner, tmp_path, args, option):
    """Out-of-range flags exit 2 naming the flag, with no traceback and no
    output written (some once ended in a traceback, and `report --widths ,`
    wrote a sweep with no trained rows)."""
    net = tmp_path / "net.json"
    net.write_text(SMALL_NET)
    subs = {"NET": str(net), "OUT": str(tmp_path / "out")}
    result = runner.invoke(main, [subs.get(a, a) for a in args], catch_exceptions=False)
    assert result.exit_code == 2, result.output
    assert option in result.output and "Traceback" not in result.output
    assert not (tmp_path / "out.json").exists() and not (tmp_path / "out.csv").exists()


class TestBuildInstance:
    def test_writes_instance_and_samples(self, runner, tmp_path):
        inst = tmp_path / "inst.json"
        csvp = tmp_path / "s.csv"
        invoke(
            runner,
            ["build-instance", "--d", "1", "--seed", "5", "--out", str(inst),
             "--samples", "20", "--samples-out", str(csvp)],
        )
        spec = instance.spec_from_json(inst.read_text())
        assert spec.d == 1
        lines = csvp.read_text().strip().split("\n")
        assert len(lines) == 21
        assert lines[0].startswith("point0,")

    def test_deterministic_bytes(self, runner, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        invoke(runner, ["build-instance", "--d", "1", "--seed", "5", "--out", str(a)])
        invoke(runner, ["build-instance", "--d", "1", "--seed", "5", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()


class TestEval:
    def test_target_values(self, runner):
        result = invoke(
            runner,
            ["eval", "--d", "1", "--point", "0,0,0.25,0.25", "--point", "0,0,0.05,0.3"],
        )
        assert json.loads(result.output) == {"values": [1, 0]}

    def test_network_evaluation(self, runner, tmp_path):
        net = networks.DenseNetwork(
            2,
            ((np.array([[1.0, 0.0]]), np.array([0.0])),),
            np.array([1.0]),
            0.5,
            networks.RELU,
        )
        p = tmp_path / "net.json"
        p.write_text(networks.network_to_json(net))
        result = invoke(runner, ["eval", "--net", str(p), "--point", "2,9"])
        assert json.loads(result.output) == {"values": [2.5]}

    def test_requires_exactly_one_mode(self, runner):
        result = runner.invoke(main, ["eval", "--point", "1"])
        assert result.exit_code != 0

    @pytest.mark.parametrize(
        "point",
        ["nan,0,0.25,0.25", "0,inf,0.25,0.25", "0,0,1e300,0.25", "0,0,0.25", "0,0,x,0.25", ""],
    )
    def test_bad_target_point_is_a_usage_error(self, runner, point):
        result = runner.invoke(main, ["eval", "--d", "1", "--point", point], catch_exceptions=False)
        assert result.exit_code == 2, result.output
        assert "--point" in result.output

    @pytest.mark.parametrize("point", ["nan,1", "2,-inf", "2", "2,9,1"])
    def test_bad_network_point_is_a_usage_error(self, runner, tmp_path, point):
        net = networks.DenseNetwork(
            2, ((np.ones((1, 2)), np.zeros(1)),), np.ones(1), 0.0, networks.RELU
        )
        p = tmp_path / "net.json"
        p.write_text(networks.network_to_json(net))
        result = runner.invoke(main, ["eval", "--net", str(p), "--point", point], catch_exceptions=False)
        assert result.exit_code == 2, result.output


class TestCompileThreshold:
    def test_files_and_report(self, runner, tmp_path, rng):
        net = networks.DenseNetwork(
            4,
            ((rng.uniform(-1, 1, (4, 4)), rng.uniform(-1, 1, 4)),),
            rng.uniform(-1, 1, 4),
            0.0,
            networks.RELU,
        )
        src = tmp_path / "in.json"
        src.write_text(networks.network_to_json(net))
        out = tmp_path / "compiled.json"
        rep = tmp_path / "report.json"
        invoke(
            runner,
            ["compile-threshold", "--net", str(src), "--delta", "0.05",
             "--out", str(out), "--report", str(rep)],
        )
        compiled = networks.network_from_json(out.read_text())
        assert compiled.activation.tag == "threshold"
        report = json.loads(rep.read_text())
        assert report["exhaustive_error"] <= report["proven_error"] + 1e-12
        assert report["proven_error"] <= 0.05 and report["domain"] == "cube"
        assert report["width_out"] == [4 * report["segments_per_neuron"]]
        assert "certified_error" not in report

    def test_report_past_the_cube_dimension(self, runner, tmp_path, rng):
        """At 14 inputs the report names the interval planned on and the
        proven error, and no exhaustive error."""
        net = networks.DenseNetwork(
            14, ((rng.uniform(-0.5, 0.5, (3, 14)), rng.uniform(-0.5, 0.5, 3)),), rng.uniform(-1, 1, 3), 0.0,
            networks.SIGMOID,
        )
        src = tmp_path / "in.json"
        src.write_text(networks.network_to_json(net))
        rep = tmp_path / "report.json"
        invoke(runner, ["compile-threshold", "--net", str(src), "--delta", "0.05", "--out",
                        str(tmp_path / "out.json"), "--report", str(rep)])
        report = json.loads(rep.read_text())
        W, b = net.hidden[0]
        lo, hi = report["domain"]
        assert lo == pytest.approx((b + np.minimum(W, 0).sum(axis=1)).min(), abs=1e-12)
        assert hi == pytest.approx((b + np.maximum(W, 0).sum(axis=1)).max(), abs=1e-12)
        assert 0.0 < report["proven_error"] <= 0.05 and "exhaustive_error" not in report

    @pytest.mark.parametrize("n_inputs", [4, 14])
    def test_report_runs_no_scalar_compile(self, runner, tmp_path, monkeypatch, rng, n_inputs):
        """The command plans only through compile_network: it succeeds with
        the scalar compiler made to fail, on and past the cube dimension."""

        def refuse(*args, **kwargs):
            raise AssertionError("compile-threshold called compile_scalar")

        monkeypatch.setattr(threshold, "compile_scalar", refuse)
        net = networks.DenseNetwork(
            n_inputs, ((rng.uniform(-0.5, 0.5, (3, n_inputs)), rng.uniform(-0.5, 0.5, 3)),),
            rng.uniform(-1, 1, 3), 0.0, networks.RELU,
        )
        src = tmp_path / "in.json"
        src.write_text(networks.network_to_json(net))
        result = invoke(runner, ["compile-threshold", "--net", str(src), "--delta", "0.05", "--out",
                                 str(tmp_path / "out.json")])
        report = json.loads(result.output)
        assert 0.0 < report["proven_error"] <= 0.05 and "grid_rule_segments" not in report

    def test_all_zero_net_compiles_to_width_zero(self, runner, tmp_path):
        net = networks.DenseNetwork(2, ((np.zeros((1, 2)), np.zeros(1)),), np.zeros(1), 0.0, networks.RELU)
        src = tmp_path / "z.json"
        src.write_text(networks.network_to_json(net))
        result = invoke(runner, ["compile-threshold", "--net", str(src), "--delta", "0.1", "--out",
                                 str(tmp_path / "out.json")])
        report = json.loads(result.output)
        assert report["width_out"] == [0] and report["exhaustive_error"] == report["proven_error"] == 0.0

    def test_oversized_grid_is_a_usage_error(self, runner, tmp_path):
        # 16 inputs are past the cube enumeration, so the staircase is planned
        # on the reached range [0, 16000] at delta / 8: a grid of about 1e7 points
        net = networks.DenseNetwork(
            16, ((np.full((8, 16), 1000.0), np.zeros(8)),), np.ones(8), 0.0, networks.RELU
        )
        src = tmp_path / "big.json"
        src.write_text(networks.network_to_json(net))
        out = tmp_path / "out.json"
        result = invoke(runner, ["compile-threshold", "--net", str(src), "--delta", "0.05",
                                 "--out", str(out)], expect_exit=2)
        assert "--delta" in result.output and "grid" in result.output
        assert "Traceback" not in result.output and not out.exists()

    def test_depth3_net_is_a_usage_error(self, runner, tmp_path):
        from depthsep.depth3 import build_exact_relu

        src = tmp_path / "deep.json"
        src.write_text(networks.network_to_json(build_exact_relu(1)))
        out = tmp_path / "out.json"
        result = invoke(runner, ["compile-threshold", "--net", str(src), "--delta", "0.1",
                                 "--out", str(out)], expect_exit=2)
        assert "--net" in result.output and "depth-3" in result.output
        assert "Traceback" not in result.output and not out.exists()


class TestReduce:
    def test_reports_equivalence_and_counts(self, runner, tmp_path):
        out = tmp_path / "avg.json"
        result = invoke(
            runner,
            ["reduce", "--d", "1", "--D", "8", "--blocks", "3", "--seed", "9",
             "--out", str(out)],
        )
        report = json.loads(result.output)
        assert report["block_equivalence_error"] <= 1e-9
        assert report["width"] == [24]
        assert not report["bound_armed"]
        net = networks.network_from_json(out.read_text())
        assert net.input_dim == 2

    def test_out_file_is_pinned(self, runner, tmp_path):
        """A fixed seed writes the same averaged network, byte for byte, as
        the reference run whose SHA-256 is pinned here."""
        out = tmp_path / "avg.json"
        invoke(runner, ["reduce", "--d", "1", "--D", "8", "--blocks", "3", "--seed", "9", "--out", str(out)])
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "cde992ecd5ace9d7a6d3aaf553c93d2e807e64dbd06fc5c82469d838e875264b")

    def test_failed_check_exits_1_and_writes_no_out(self, runner, tmp_path, monkeypatch):
        """Blocks absorbed without their maps' offsets are not the mean of the
        base over the expanded pairs: reduce prints its report, writes no
        --out file and exits 1."""
        absorb = reduction.absorb_input_map
        monkeypatch.setattr(reduction, "absorb_input_map", lambda net, P, c: absorb(net, P, np.zeros_like(c)))
        out = tmp_path / "avg.json"
        result = invoke(runner, ["reduce", "--d", "1", "--D", "8", "--blocks", "3", "--seed", "9",
                                 "--out", str(out)], expect_exit=1)
        report = json.loads(result.output)
        assert report["block_equivalence_error"] > 1e-9 * max(1.0, report["base_output_bound"])
        assert not out.exists()


class TestVerifyLemmas:
    def test_passing_run(self, runner, tmp_path):
        out = tmp_path / "rep.json"
        invoke(
            runner,
            ["verify-lemmas", "--a1", "4x4", "--a2", "d<=1", "--l2", "d=1,D=24",
             "--out", str(out)],
        )
        doc = json.loads(out.read_text())
        assert doc["pass"]
        assert {r["lemma"] for r in doc["reports"]} == {"a1", "a2", "l2"}
        for r in doc["reports"]:
            assert {"lemma", "parameters", "max_ratio", "pass"} <= set(r)
        [l2] = [r for r in doc["reports"] if r["lemma"] == "l2"]
        assert l2["worst_input"] in ([[x], [y]] for x in (0, 1) for y in (0, 1))

    def test_paper_regime_l2_at_d2(self, runner):
        result = invoke(runner, ["verify-lemmas", "--l2", "d=2,D=200"])
        doc = json.loads(result.output)
        [l2] = doc["reports"]
        assert doc["pass"] and l2["pass"] and l2["bound_armed"]
        assert l2["parameters"] == {"d": 2, "D": 200}
        assert 0 < l2["max_ratio"] < 1
        assert l2["n_inputs"] == 16 and l2["n_shift_pairs"] > 0 and l2["elapsed_s"] >= 0

    def test_paper_regime_a1(self, runner):
        """D = 100 d and beyond for d = 4, 8, 16, with the RHS unchanged and the verdict exact."""
        result = invoke(runner, ["verify-lemmas", "--a1", "4,8,16x400,800,1600"])
        doc = json.loads(result.output)
        assert doc["pass"] and len(doc["reports"]) == 9
        for r in doc["reports"]:
            d, D = r["parameters"]["d"], r["parameters"]["D"]
            assert r["pass"] and r["failures"] == [] and 0.94 < r["max_ratio"] < 1
            assert r["n_splits"] == comb(d + 3, 3) and r["elapsed_s"] >= 0
            assert r["worst_split"] == [d // 4] * 4

    @pytest.mark.parametrize(
        "args, option",
        [
            (["--a2", "d<=17"], "--a2"),
            (["--a1", "4x4", "--l2", "d=7,D=4"], "--l2"),
            (["--a1", "4x4,6", "--a2", "d<=1"], "--a1"),
            (["--a2", "d<=1", "--l2", "d=1,D=300000"], "--l2"),
            (["--a2", "d<=1", "--a1", "4x200000"], "--a1"),
            (["--a1", "4,8,16,68x400,800,1600"], "--a1"),
        ],
    )
    def test_every_size_is_checked_before_any_report(self, runner, monkeypatch, args, option):
        ran = []
        for name in ("multinomial_square_ratio_report", "mgf_bound_report", "l2_bound_report"):
            monkeypatch.setattr(reduction, name, lambda *a, name=name: ran.append(name))
        result = runner.invoke(main, ["verify-lemmas", *args], catch_exceptions=False)
        assert result.exit_code == 2, result.output
        assert option in result.output and '"pass"' not in result.output
        assert ran == []

    def test_requires_a_selection(self, runner):
        result = runner.invoke(main, ["verify-lemmas"])
        assert result.exit_code != 0

    @pytest.mark.parametrize(
        "args",
        [
            ["--a2", "d<=0"],
            ["--a1", "4x"],
            ["--a2", "d<=x"],
            ["--l2", "d=1"],
            ["--a1", "3x4"],
            ["--l2", "d=7,D=4"],
        ],
    )
    def test_bad_spec_is_a_usage_error(self, runner, args):
        result = runner.invoke(main, ["verify-lemmas", *args])
        assert result.exit_code == 2, result.output
        assert "Error:" in result.output
        assert '"pass"' not in result.output


class TestTrainBaseline:
    def test_report_written(self, runner, tmp_path):
        out = tmp_path / "train.json"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"width": 4, "epochs": 2, "samples_per_epoch": 256}))
        invoke(
            runner,
            ["train-baseline", "--d", "1", "--seed", "3", "--config", str(cfg),
             "--out", str(out)],
        )
        doc = json.loads(out.read_text())
        assert len(doc["history"]) == 2
        assert doc["config"]["width"] == 4
        assert "population_loss" in doc

    def test_config_seed_is_kept_without_the_flag(self, runner, tmp_path):
        """A seed in the config file seeds the instance and the training; only
        a --seed given on the command line replaces it."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"width": 2, "epochs": 1, "samples_per_epoch": 128, "seed": 5}))
        plain = tmp_path / "plain.json"
        plain.write_text(json.dumps({"width": 2, "epochs": 1, "samples_per_epoch": 128}))
        args = ["train-baseline", "--d", "1"]
        from_file = invoke(runner, [*args, "--config", str(cfg)]).output
        from_flag = invoke(runner, [*args, "--config", str(plain), "--seed", "5"]).output
        assert json.loads(from_file)["config"]["seed"] == 5
        assert from_file == from_flag
        overridden = invoke(runner, [*args, "--config", str(cfg), "--seed", "0"]).output
        assert json.loads(overridden)["config"]["seed"] == 0
        assert overridden == invoke(runner, [*args, "--config", str(plain)]).output
        assert overridden != from_file


class TestReport:
    def test_writes_csv_and_json(self, runner, tmp_path):
        prefix = tmp_path / "sweep"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"width": 1, "epochs": 2, "samples_per_epoch": 256}))
        invoke(
            runner,
            ["report", "--d", "1", "--widths", "2,4", "--seed", "3",
             "--config", str(cfg), "--out", str(prefix)],
        )
        csv_text = (tmp_path / "sweep.csv").read_text()
        assert csv_text.splitlines()[0].startswith("label,width")
        doc = json.loads((tmp_path / "sweep.json").read_text())
        labels = [r["label"] for r in doc["rows"]]
        assert "constant-half" in labels and "exact-depth3" in labels

    def test_config_seed_is_kept_without_the_flag(self, runner, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"width": 1, "epochs": 1, "samples_per_epoch": 128, "seed": 5}))
        plain = tmp_path / "plain.json"
        plain.write_text(json.dumps({"width": 1, "epochs": 1, "samples_per_epoch": 128}))
        args = ["report", "--d", "1", "--widths", "2"]
        invoke(runner, [*args, "--config", str(cfg), "--out", str(tmp_path / "file")])
        invoke(runner, [*args, "--config", str(plain), "--seed", "5", "--out", str(tmp_path / "flag")])
        invoke(runner, [*args, "--config", str(cfg), "--seed", "0", "--out", str(tmp_path / "zero")])
        file_json = (tmp_path / "file.json").read_bytes()
        assert json.loads(file_json)["config"]["seed"] == 5
        assert file_json == (tmp_path / "flag.json").read_bytes()
        assert json.loads((tmp_path / "zero.json").read_bytes())["config"]["seed"] == 0

    def test_byte_identical_reruns(self, runner, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"width": 1, "epochs": 1, "samples_per_epoch": 128}))
        args = ["report", "--d", "1", "--widths", "2", "--seed", "3", "--config", str(cfg)]
        invoke(runner, args + ["--out", str(tmp_path / "one")])
        invoke(runner, args + ["--out", str(tmp_path / "two")])
        assert (tmp_path / "one.csv").read_bytes() == (tmp_path / "two.csv").read_bytes()
        assert (tmp_path / "one.json").read_bytes() == (tmp_path / "two.json").read_bytes()


class TestVerifyAllCommand:
    def test_runs_as_a_module_in_a_fresh_process(self):
        """``python -m depthsep`` from a checkout, the path a first call pays
        every allocation of."""
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        result = subprocess.run(
            [sys.executable, "-m", "depthsep", "verify-all", "--only", "exact-net", "--seed", "0"],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert result.returncode == 0, result.stderr
        assert json.loads(result.stdout)["pass"]

    def test_subset_passes(self, runner):
        result = invoke(runner, ["verify-all", "--only", "baseline,gradient"])
        doc = json.loads(result.output)
        assert doc["pass"]

    def test_unknown_check_is_a_usage_error(self, runner):
        result = runner.invoke(
            main, ["verify-all", "--only", "baseline,nonsense"], catch_exceptions=False
        )
        assert result.exit_code == 2, result.output
        assert "--only" in result.output and "nonsense" in result.output
        assert "baseline" in result.output and "packing" in result.output
        assert '"pass"' not in result.output

    def test_corrupted_packing_exits_nonzero(self, runner, tmp_path):
        spec = instance.build_instance(1, seed=4)
        doc = json.loads(instance.spec_to_json(spec))
        doc["points"][1] = [c * 0.9 for c in doc["points"][0]]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        result = runner.invoke(
            main,
            ["verify-all", "--only", "packing", "--instance", str(bad)],
            catch_exceptions=False,
        )
        assert result.exit_code == 1
        assert not json.loads(result.output)["pass"]

    def test_instance_outside_the_unit_ball_fails(self, runner, tmp_path, outside_ball_json):
        bad = tmp_path / "outside.json"
        bad.write_text(outside_ball_json)
        result = runner.invoke(
            main, ["verify-all", "--only", "packing", "--instance", str(bad)], catch_exceptions=False
        )
        assert result.exit_code == 1
        [check] = json.loads(result.output)["checks"]
        assert check["error"] == "ValueError" and "support radius 1.0318" in check["detail"]

    def test_corrupted_instance_reports_the_error(self, runner, tmp_path):
        spec = instance.build_instance(1, seed=4)
        doc = json.loads(instance.spec_to_json(spec))
        doc["d"] = 2
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        result = runner.invoke(
            main, ["verify-all", "--only", "packing", "--instance", str(bad)], catch_exceptions=False
        )
        assert result.exit_code == 1
        [check] = json.loads(result.output)["checks"]
        assert check["name"] == "packing" and check["error"] == "ValueError"
        assert "d=2" in check["detail"] and check["elapsed_s"] >= 0
