"""Instance construction: packing invariants, sampler laws, target values."""

import math

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracle_utils import difference_min_pairwise, sequential_accept, sequential_greedy_packing

from depthsep import instance
from depthsep.bits import ip_mod2
from depthsep.instance import (
    PackingInfeasible,
    build_instance,
    build_packing,
    eval_f,
    eval_f_batch,
    hypercube_enumeration,
    min_intercomponent_distance,
    sample_a4d,
    samples_to_csv,
    spec_from_json,
    spec_to_json,
)


class TestPacking:
    def test_d1_invariants(self):
        p = build_packing(1, seed=7, max_attempts=10_000)
        assert p.n_points == 4
        assert p.points.shape == (4, 2)
        assert np.linalg.norm(p.points, axis=1).max() <= 0.8
        assert p.min_pairwise_distance > 0.4

    def test_d3_invariants(self):
        p = build_packing(3, seed=1, max_attempts=1_000_000)
        assert p.n_points == 64
        assert p.points.shape == (64, 6)
        assert np.linalg.norm(p.points, axis=1).max() <= 0.8
        assert p.min_pairwise_distance > 0.4

    def test_infeasible_budget(self):
        with pytest.raises(PackingInfeasible):
            build_packing(1, seed=7, max_attempts=3)
        assert sequential_greedy_packing(1, 7, max_attempts=3)[0] is None

    def test_deterministic(self):
        a = build_packing(2, seed=42)
        b = build_packing(2, seed=42)
        assert np.array_equal(a.points, b.points)

    def test_d_cap(self):
        with pytest.raises(ValueError, match="d <= 6"):
            build_packing(7, seed=0)

    def test_validate_catches_corruption(self):
        bad = build_packing(1, seed=7).points.copy()
        bad[1] = bad[0] * 0.9  # distance ~0.076, norm still below 0.8
        with pytest.raises(ValueError, match="pairwise distance"):
            instance.Packing(bad)

    def test_construction_rejects_every_broken_invariant(self):
        pts = build_packing(2, seed=3).points
        far, nan = pts.copy(), pts.copy()
        far[0] *= 0.81 / np.linalg.norm(far[0])
        nan[2, 0] = np.nan
        odd = np.hstack([build_packing(1, seed=7).points, np.zeros((4, 1))])  # 4 = 4^(3//2) points
        for points, message in [
            (far, "point norm 0.810000 exceeds 0.8"),
            (nan, "point norm nan exceeds 0.8"),
            (odd, r"expected 4\^\(dim/2\) points, got 4 in dim 3"),
            (pts[:15], "got 15 in dim 4"),
            (np.zeros((1, 0)), "got 1 in dim 0"),
        ]:
            with pytest.raises(ValueError, match=message):
                instance.Packing(points.copy())
        with pytest.raises(TypeError):
            instance.Packing(pts, min_pairwise_distance=9.0, radius_bound=-1.0)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_fields_are_recomputed_from_the_points(self, d):
        p = build_packing(d, seed=d)
        again = instance.Packing(p.points.copy())
        assert (p.dim, p.n_points, again.dim, again.n_points) == (2 * d, 4**d, 2 * d, 4**d)
        assert repr(again.min_pairwise_distance) == repr(p.min_pairwise_distance)
        assert repr(p.min_pairwise_distance) == repr(difference_min_pairwise(p.points))
        assert again.radius_bound == p.radius_bound == np.linalg.norm(p.points, axis=1).max()

    def test_spec_reads_d_from_its_packing(self, spec_d1, spec_d2):
        assert (spec_d1.d, spec_d2.d) == (1, 2)
        assert spec_d2.centers().shape == (16, 8)
        with pytest.raises(ValueError, match="bijection"):
            instance.InstanceSpec(packing=spec_d1.packing, matching=np.array([0, 1, 1, 3]), seed=0)


class TestScreenedPacking:
    """The Gram-screened, block-drawn packing against the sequential greedy
    and the difference-tensor minimum distance, byte for byte."""

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6])
    def test_byte_identical_to_sequential_greedy(self, d):
        for seed in (1, 2, 3):
            want, _ = sequential_greedy_packing(d, seed)
            got = build_packing(d, seed)
            assert got.points.tobytes() == want.tobytes()
            assert repr(got.min_pairwise_distance) == repr(difference_min_pairwise(want))

    @pytest.mark.parametrize("d,seed", [(1, 7), (2, 1), (3, 4), (4, 2), (5, 3)])
    def test_smallest_budget_matches_oracle(self, d, seed):
        want, used = sequential_greedy_packing(d, seed)
        assert build_packing(d, seed, max_attempts=used).points.tobytes() == want.tobytes()
        with pytest.raises(PackingInfeasible, match=f"in {used - 1} attempts"):
            build_packing(d, seed, max_attempts=used - 1)
        assert sequential_greedy_packing(d, seed, max_attempts=used - 1)[0] is None

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from([1, 2]), st.integers(0, 2**64 - 1), st.integers(1, 3000))
    def test_any_budget_matches_oracle(self, d, seed, max_attempts):
        """Runs of up to 16 proposals hold conflict chains: a survivor whose
        only conflict is with one that was itself dropped is kept."""
        want, _ = sequential_greedy_packing(d, seed, max_attempts)
        if want is None:
            with pytest.raises(PackingInfeasible):
                build_packing(d, seed, max_attempts)
        else:
            assert build_packing(d, seed, max_attempts).points.tobytes() == want.tobytes()

    @staticmethod
    def _on_circle(degrees):
        """Points of the circle of radius 0.76 at the given angles."""
        a = np.deg2rad(np.asarray(degrees, dtype=np.float64))
        return np.stack([0.76 * np.cos(a), 0.76 * np.sin(a)], axis=1)

    # the angle at which two points of the circle are 0.4 apart, and an angle
    # that moves that distance by about 1e-12, far inside the recheck band
    EDGE = math.degrees(2 * math.asin(0.4 / (2 * 0.76)))
    TICK = math.degrees(1e-12 / 0.76)

    @pytest.mark.parametrize(
        "placed, run, kept",
        [
            # 0.4 - 1e-12 and 0.4 + 1e-12 from the placed point
            ([0.0], [-EDGE + TICK, EDGE + TICK], [1]),
            # the same distances inside the run
            ([], [0.0, EDGE - TICK, -EDGE - TICK], [0, 2]),
            # 1 is dropped for 0, so 2, close to 1 only, is kept
            ([], [0.0, 20.0, 40.0], [0, 2]),
            # 0 is dropped by the recheck against the placed point, so 1,
            # close to 0 only, is kept
            ([0.0], [EDGE - TICK, EDGE - TICK + 20.0], [1]),
        ],
        ids=["band-before-run", "band-in-run", "chain-in-run", "chain-before-run"],
    )
    def test_run_keeps_what_single_draws_keep(self, placed, run, kept):
        placed, run = self._on_circle(placed), self._on_circle(run)
        got = instance._accept_run(run, placed)
        assert got.tobytes() == sequential_accept(run, placed).tobytes()
        assert got.tobytes() == sequential_accept(run[kept], placed).tobytes()

    def test_band_cases_fall_in_the_band(self):
        """The 0.4 +- 1e-12 pairs above are decided by the exact recheck."""
        pts = self._on_circle([0.0, self.EDGE - self.TICK, self.EDGE + self.TICK])
        screen = 2 * 0.76**2 - 2.0 * (pts[1:] @ pts[0])
        assert ((instance._CLOSE <= screen) & (screen <= instance._BAND)).all()
        assert list(np.linalg.norm(pts[1:] - pts[0], axis=1) > 0.4) == [False, True]

    @pytest.mark.parametrize("n,dim,scale", [(2, 3, 1.0), (5, 1, 1e3), (700, 4, 1.0), (1100, 12, 1e-3)])
    def test_min_pairwise_matches_difference_formula(self, n, dim, scale):
        pts = np.random.default_rng(n).normal(size=(n, dim)) * scale
        assert repr(instance._min_pairwise(pts)) == repr(difference_min_pairwise(pts))

    def test_min_pairwise_with_ties_and_duplicates(self):
        grid = np.array([[i, j] for i in range(30) for j in range(30)], dtype=np.float64) * 0.1
        assert repr(instance._min_pairwise(grid)) == repr(difference_min_pairwise(grid))
        dup = np.vstack([grid, grid[17:18]])
        assert instance._min_pairwise(dup) == 0.0
        assert instance._min_pairwise(grid[:1]) == math.inf

    def test_centers_distance_matches_difference_formula(self, spec_d2):
        centers = spec_d2.centers()
        assert repr(instance._min_pairwise(centers)) == repr(difference_min_pairwise(centers))


class TestEvalF:
    def test_worked_examples_d1(self):
        # 3 sqrt(1) * 0.25 = 0.75 rounds to 1 on both coordinates
        assert eval_f(1, [0.3, -0.2, 0.25, 0.25]) == 1
        # 3 * 0.05 = 0.15 rounds to 0, killing the product
        assert eval_f(1, [0.3, -0.2, 0.05, 0.30]) == 0
        assert eval_f(1, [0.3, -0.2, 0.0, 0.0]) == 0

    def test_ignores_leading_coordinates(self):
        base = [0.0, 0.0, 0.25, 0.25]
        moved = [5.0, -3.0, 0.25, 0.25]
        assert eval_f(1, base) == eval_f(1, moved) == 1

    def test_length_check(self):
        with pytest.raises(ValueError):
            eval_f(1, [0.1, 0.2, 0.3])

    def test_center_values_match_bit_parity(self):
        for d in (1, 2, 3, 4):
            spec = build_instance(d, seed=100 + d)
            labels = eval_f_batch(d, spec.centers())
            for i in range(spec.n_components):
                bits = spec.component_bits(i)
                assert labels[i] == ip_mod2(bits[:d], bits[d:])


class TestSampler:
    def test_norms_inside_unit_ball(self, spec_d1):
        batch = sample_a4d(spec_d1, 1000, seed=3)
        assert np.linalg.norm(batch.points, axis=1).max() <= 1.0

    def test_labels_match_eval(self, spec_d1):
        batch = sample_a4d(spec_d1, 500, seed=11)
        assert np.array_equal(batch.labels, eval_f_batch(1, batch.points))

    def test_component_frequencies(self, spec_d2):
        n = 10_000
        batch = sample_a4d(spec_d2, n, seed=5)
        counts = np.bincount(batch.component_index, minlength=16)
        p = 1.0 / 16.0
        sigma = math.sqrt(n * p * (1 - p))
        assert np.abs(counts - n * p).max() <= 4 * sigma

    def test_nearest_center_is_generator(self, spec_d2):
        batch = sample_a4d(spec_d2, 2000, seed=8)
        centers = spec_d2.centers()
        d2 = ((batch.points[:, None, :] - centers[None, :, :]) ** 2).sum(-1)
        assert np.array_equal(d2.argmin(axis=1), batch.component_index)

    def test_constant_per_component(self, spec_d2):
        batch = sample_a4d(spec_d2, 16_000, seed=13)
        for i in range(spec_d2.n_components):
            labels = batch.labels[batch.component_index == i]
            assert labels.size > 0
            assert np.all(labels == labels[0])

    def test_deterministic(self, spec_d1):
        a = sample_a4d(spec_d1, 100, seed=21)
        b = sample_a4d(spec_d1, 100, seed=21)
        assert np.array_equal(a.points, b.points)
        assert np.array_equal(a.component_index, b.component_index)

    def test_batch_indexing(self, spec_d1):
        batch = sample_a4d(spec_d1, 10, seed=2)
        point, comp, label = batch[3]
        assert point.shape == (4,)
        assert label in (0, 1)
        assert 0 <= comp < 4


class TestGeometry:
    def test_min_intercomponent_distance_bound(self, spec_d1, spec_d2):
        for spec in (spec_d1, spec_d2):
            gap = min_intercomponent_distance(spec)
            assert gap >= 0.4 - 1.0 / 6.0
            assert gap <= spec.packing.min_pairwise_distance

    def test_gap_tracks_packing_distance(self, spec_d1):
        # this packing happens to spread beyond 0.5, and the gap follows
        assert spec_d1.packing.min_pairwise_distance > 0.5
        assert min_intercomponent_distance(spec_d1) > 0.5 - 1.0 / 6.0

    def test_support_radius_is_the_farthest_cube_corner(self, spec_d1, spec_d2):
        for spec in (spec_d1, spec_d2):
            corners = hypercube_enumeration(4 * spec.d) * spec.cube_edge
            far = max(np.linalg.norm(c + corners, axis=1).max() for c in spec.centers())
            assert spec.support_radius == pytest.approx(far, rel=1e-15)
            assert spec.support_radius <= 1.0
            batch = sample_a4d(spec, 2000, seed=6)
            assert np.linalg.norm(batch.points, axis=1).max() <= spec.support_radius

    def test_support_leaving_the_unit_ball_rejected(self, outside_ball_json):
        doc = json.loads(outside_ball_json)
        instance.Packing(np.asarray(doc["points"]))  # the packing alone holds its invariants
        with pytest.raises(ValueError, match=r"support radius 1\.0318"):
            spec_from_json(outside_ball_json)

    def test_same_component_pairs_have_zero_ratio(self, spec_d1):
        batch = sample_a4d(spec_d1, 2000, seed=4)
        comp = batch.component_index
        labels = batch.labels
        for i in range(4):
            vals = labels[comp == i]
            assert np.all(vals == vals[0])


class TestSerialization:
    def test_spec_roundtrip(self, spec_d2):
        text = spec_to_json(spec_d2)
        back = spec_from_json(text)
        assert back.d == spec_d2.d
        assert np.array_equal(back.packing.points, spec_d2.packing.points)
        assert np.array_equal(back.matching, spec_d2.matching)
        assert spec_to_json(back) == text

    def test_load_computes_min_distance_once(self, spec_d2, monkeypatch):
        calls = []
        real = instance._min_pairwise
        monkeypatch.setattr(instance, "_min_pairwise", lambda pts: calls.append(1) or real(pts))
        back = spec_from_json(spec_to_json(spec_d2))
        assert len(calls) == 1
        assert back.packing.min_pairwise_distance == spec_d2.packing.min_pairwise_distance

    def test_rejects_d_that_disagrees_with_packing(self, spec_d1):
        doc = json.loads(spec_to_json(spec_d1))
        doc["d"] = 2
        with pytest.raises(ValueError, match=r"d=2 needs 4\^d .* got shape \(4, 2\)"):
            spec_from_json(json.dumps(doc))

    def test_rejects_moved_point(self, spec_d1):
        doc = json.loads(spec_to_json(spec_d1))
        doc["points"][1] = [c * 0.9 for c in doc["points"][0]]
        with pytest.raises(ValueError, match="pairwise distance"):
            spec_from_json(json.dumps(doc))

    def test_rejects_non_finite_point(self, spec_d1):
        doc = json.loads(spec_to_json(spec_d1))
        doc["points"][2][0] = float("nan")
        with pytest.raises(ValueError, match="finite"):
            spec_from_json(json.dumps(doc))

    def test_samples_csv(self, spec_d1):
        batch = sample_a4d(spec_d1, 5, seed=1)
        text = samples_to_csv(batch)
        lines = text.strip().split("\n")
        assert lines[0] == "point0,point1,point2,point3,component_index,label"
        assert len(lines) == 6
        cells = lines[1].split(",")
        assert float(cells[0]) == batch.points[0, 0]
        assert samples_to_csv(batch) == text


def test_hypercube_enumeration_convention():
    bits = hypercube_enumeration(3)
    assert bits.shape == (8, 3)
    assert bits[5].tolist() == [1, 0, 1]  # 5 = 101 binary, lsb first
    assert len({tuple(r) for r in bits.tolist()}) == 8


def test_matching_is_bijection(spec_d2):
    assert sorted(spec_d2.matching.tolist()) == list(range(16))


def test_scales(spec_d2):
    assert spec_d2.x_scale == pytest.approx(1.0 / (4 * math.sqrt(2)))
    assert spec_d2.cube_edge == pytest.approx(1.0 / (12 * math.sqrt(2)))
