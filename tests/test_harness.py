"""Experiment reports and the aggregated verification battery."""

import json
import re

import numpy as np
import pytest

from depthsep import instance
from depthsep.harness import (
    CHECK_NAMES,
    measure_sup_error,
    run_separation_experiment,
    verify_all,
)
from depthsep.depth3 import build_exact_relu
from depthsep.networks import RELU, DenseNetwork
from depthsep.training import TrainConfig, train_depth2


@pytest.fixture(scope="module")
def small_report(spec_module):
    cfg = TrainConfig(width=1, epochs=3, seed=2, samples_per_epoch=512)
    return run_separation_experiment(spec_module, [8, 2], cfg, n_eval=2000, seed=1)


@pytest.fixture(scope="module")
def spec_module():
    return instance.build_instance(1, seed=31)


class TestExperimentReport:
    def test_reference_rows_present(self, small_report):
        labels = [r["label"] for r in small_report.rows]
        assert "constant-half" in labels
        assert "exact-depth3" in labels

    def test_reference_values(self, small_report):
        by_label = {r["label"]: r for r in small_report.rows}
        assert by_label["constant-half"]["population_loss"] == 0.25
        assert by_label["exact-depth3"]["population_loss"] <= 1e-12

    def test_widths_sorted_ascending(self, small_report):
        trained = [r["width"] for r in small_report.rows if r["label"].startswith("trained")]
        assert trained == sorted(trained)
        assert trained == [2, 8]

    def test_csv_shape_and_determinism(self, small_report):
        text = small_report.to_csv()
        lines = text.strip().split("\n")
        assert lines[0].startswith("label,width,final_loss")
        assert len(lines) == 1 + len(small_report.rows)
        assert small_report.to_csv() == text

    def test_json_roundtrip(self, small_report):
        doc = json.loads(small_report.to_json())
        assert doc["d"] == 1
        assert len(doc["rows"]) == len(small_report.rows)


def test_best_losses_monotone_in_width_soft():
    """Wider baselines do at least as well, up to 0.02 of seed noise;
    recorded as an empirical regression, not a theory claim."""
    spec = instance.build_instance(2, seed=21)
    best = []
    for w in (4, 16, 64, 256):
        cfg = TrainConfig(width=w, epochs=40, seed=3, learning_rate=0.02)
        best.append(train_depth2(spec, cfg).best_loss)
    for narrow, wide in zip(best, best[1:]):
        assert wide <= narrow + 0.02


class TestMeasureSupError:
    def test_exact_net_is_tight(self, spec_module):
        err = measure_sup_error(build_exact_relu(1), spec_module, 5000, seed=3)
        assert err <= 1e-9

    @pytest.mark.parametrize("n", [5_000, 25_000])
    def test_one_draw(self, spec_module, n):
        """n rows are the one draw sample_a4d(spec, n, seed)."""
        rng = np.random.default_rng(4)
        net = DenseNetwork(4, ((rng.normal(size=(6, 4)), rng.normal(size=6)),), rng.normal(size=6), 0.1, RELU)
        batch = instance.sample_a4d(spec_module, n, seed=3)
        want = float(np.abs(net.evaluate_batch(batch.points) - batch.labels).max())
        assert measure_sup_error(net, spec_module, n, seed=3) == want

    @pytest.mark.parametrize("n", [0, -3])
    def test_empty_sample_rejected(self, spec_module, n):
        """A net off by 5 everywhere must not read as error 0 on no samples."""
        off = DenseNetwork(4, ((np.zeros((1, 4)), np.zeros(1)),), np.zeros(1), 5.0, RELU)
        with pytest.raises(ValueError, match="positive"):
            measure_sup_error(off, spec_module, n, seed=3)


class TestVerifyAll:
    def test_only_filter(self):
        summary = verify_all(seed=0, only=["baseline"])
        assert [c["name"] for c in summary["checks"]] == ["baseline"]
        assert summary["pass"]

    def test_unknown_check_rejected(self):
        with pytest.raises(ValueError):
            verify_all(only=["nonsense"])

    def test_fast_subset_passes(self):
        summary = verify_all(seed=0, only=["packing", "centers", "equivalences", "gradient"])
        assert summary["pass"]
        for check in summary["checks"]:
            assert isinstance(check["elapsed_s"], float) and check["elapsed_s"] >= 0
            assert "error" not in check

    def test_packing_detail_names_what_it_read(self, spec_module):
        [built] = verify_all(seed=0, only=["packing"])["checks"]
        for d in (1, 2, 3):
            spec = instance.build_instance(d, seed=d)
            p = spec.packing
            assert (f"d={d}: {4**d} points, min distance {p.min_pairwise_distance:.4f}, "
                    f"radius {p.radius_bound:.4f}, support radius {spec.support_radius:.4f}") in built["detail"]
        [loaded] = verify_all(seed=0, only=["packing"], spec_override=instance.spec_to_json(spec_module))["checks"]
        assert loaded["pass"] and "override" in loaded["detail"]
        assert f"d=1: 4 points, min distance {spec_module.packing.min_pairwise_distance:.4f}" in loaded["detail"]

    def test_compiler_network_detail_names_both_errors(self):
        [check] = verify_all(seed=0, only=["compiler-network"])["checks"]
        assert check["pass"]
        for k in range(3):
            assert re.search(f"net {k}: width \\d+ \\(\\d+ segments per neuron\\), proven 0[.]0\\d+, "
                             f"exhaustive 0[.]0\\d+", check["detail"])

    def test_ip_preservation_detail_names_its_sizes(self):
        [check] = verify_all(seed=0, only=["ip-preservation"])["checks"]
        assert check["pass"]
        assert check["detail"] == ("16667 randomized trials at each d in [1, 2, 3, 4, 5, 6] with D = 100 d "
                                   "(100002 in all, at most 20000 per randomize_batch call), "
                                   "zero parity violations")

    def test_corrupted_packing_fails(self, spec_module):
        doc = json.loads(instance.spec_to_json(spec_module))
        doc["points"][1] = [c * 0.9 for c in doc["points"][0]]
        corrupted = json.dumps(doc)
        summary = verify_all(seed=0, only=["packing"], spec_override=corrupted)
        assert not summary["pass"]
        assert "pairwise distance" in summary["checks"][0]["detail"]
        assert summary["checks"][0]["error"] == "ValueError"
        assert summary["checks"][0]["elapsed_s"] >= 0

    def test_check_names_exported(self):
        assert "l2" in CHECK_NAMES
        assert "ip-preservation" in CHECK_NAMES
        assert "ip-certificate" in CHECK_NAMES

    def test_full_battery_passes_on_fresh_state(self):
        summary = verify_all(seed=0)
        failed = [c["name"] for c in summary["checks"] if not c["pass"]]
        assert summary["pass"], f"failed checks: {failed}"
        assert len(summary["checks"]) == len(CHECK_NAMES)
