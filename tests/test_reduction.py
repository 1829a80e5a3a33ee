"""Randomized self-reduction: parity preservation, exact laws, bound checks.

The closed-form L2 oracle is validated against a fully independent
brute-force enumeration of the whole randomization at d=1, D=2, which also
establishes the conditional-uniformity fact the closed form relies on.
"""

import itertools
import time
from collections import Counter, defaultdict
from fractions import Fraction
from math import comb, perm

import mpmath as mp
import numpy as np
import pytest
from oracle_utils import (
    block_signatures,
    brute_force_pair_law,
    composition_a1_lhs,
    composition_a1_report,
    compositions4,
    concatenated_randomize_batch,
    convolution_l2_norm_squared,
    expected_counts,
    filled_block_input_map,
    flip_order_expand_pair,
    float_l2_ratio_to_uniform,
    fraction_a1_lhs,
    fraction_l2_norm_squared,
    hand_decoded_bits,
    list_l2_closed_form,
    looped_block_signatures,
    multinomial,
    per_input_mgf_ratios,
    per_mask_count_numerators,
    per_row_draw_record,
    total_mass,
)

from depthsep import reduction
from depthsep.bits import ip_mod2
from depthsep.networks import RELU, DenseNetwork
from depthsep.reduction import (
    _EXP_BITS,
    EnumerationBudget,
    ReductionConfig,
    _a1_lhs,
    _block_positions,
    _even_pad_table,
    _exp_bounds,
    _l2_closed_form,
    _mask_law,
    _place,
    _type_classes,
    block_input_map,
    build_averaged_network,
    check_a1_size,
    check_a2_size,
    check_l2_size,
    count_signature,
    draw_record,
    exact_count_distribution,
    exact_l2_norm_squared,
    expand_pair,
    hoeffding_block_count,
    ip_preservation_certificate,
    l2_bound_report,
    mgf_bound_report,
    multinomial_square_ratio_report,
    output_bound,
    randomize_batch,
    verify_ip_preservation,
    RandomizationRecord,
)

# ---------------------------------------------------------------------------
# independent oracles
# ---------------------------------------------------------------------------


def brute_force_signature_law(xbits, ybits, D):
    """Law of the count signature by direct mask/pad enumeration; the
    permutation never changes counts, so it is skipped.  Independent of the
    module's multinomial convolution."""
    d = len(xbits)
    law = defaultdict(int)
    total = 0
    for xm in itertools.product((0, 1), repeat=d):
        for ym in itertools.product((0, 1), repeat=d):
            xs = tuple(a ^ m for a, m in zip(xbits, xm))
            ys = tuple(a ^ m for a, m in zip(ybits, ym))
            A = xs + xm + xs + xm
            B = ys + ym + ym + ys
            base = [0, 0, 0, 0]
            for a, b in zip(A, B):
                base[2 * a + b] += 1
            for xp in itertools.product((0, 1), repeat=D):
                for yp in itertools.product((0, 1), repeat=D):
                    if sum(p & q for p, q in zip(xp, yp)) % 2:
                        continue
                    sig = list(base)
                    for p, q in zip(xp, yp):
                        sig[2 * p + q] += 1
                    law[tuple(sig)] += 1
                    total += 1
    return {k: Fraction(v, total) for k, v in law.items()}


def brute_force_l2_squared_with_permutations(xbits, ybits, D):
    """Exact squared norm of the full pair law, enumerating every mask,
    admissible pad, and permutation (vectorized over permutations)."""
    d = len(xbits)
    L = 4 * d + D
    perms = np.array(list(itertools.permutations(range(L))), dtype=np.int64)
    weights = 1 << np.arange(2 * L, dtype=np.int64)
    counts = defaultdict(int)
    total = 0
    xarr = np.array(xbits, dtype=np.int64)
    yarr = np.array(ybits, dtype=np.int64)
    for xm in itertools.product((0, 1), repeat=d):
        for ym in itertools.product((0, 1), repeat=d):
            xma = np.array(xm, dtype=np.int64)
            yma = np.array(ym, dtype=np.int64)
            xs = xarr ^ xma
            ys = yarr ^ yma
            for xp in itertools.product((0, 1), repeat=D):
                for yp in itertools.product((0, 1), repeat=D):
                    if sum(p & q for p, q in zip(xp, yp)) % 2:
                        continue
                    A = np.concatenate([xs, xma, xs, xma, np.array(xp, dtype=np.int64)])
                    B = np.concatenate([ys, yma, yma, ys, np.array(yp, dtype=np.int64)])
                    keys = A[perms] @ weights[:L] + B[perms] @ weights[L:]
                    uniq, mult = np.unique(keys, return_counts=True)
                    for k, m in zip(uniq.tolist(), mult.tolist()):
                        counts[k] += m
                    total += perms.shape[0]
    return sum(Fraction(c, total) ** 2 for c in counts.values())


# ---------------------------------------------------------------------------
# randomization mechanics
# ---------------------------------------------------------------------------


class TestRandomizeInput:
    """One pair randomized as expand_pair of a fresh draw_record."""

    def test_output_lengths(self, rng):
        cfg = ReductionConfig(d=3)
        rec = draw_record(cfg.d, cfg.D, rng)
        X, Y = expand_pair([1, 0, 1], [0, 1, 1], rec)
        assert X.size == Y.size == 4 * 3 + 300
        assert rec.perm.size == X.size

    def test_parity_preserved_many(self, rng):
        for d in (1, 2, 4):
            for _ in range(200):
                x = rng.integers(0, 2, d)
                y = rng.integers(0, 2, d)
                X, Y = expand_pair(x, y, draw_record(d, 10 * d, rng))
                assert ip_mod2(X, Y) == ip_mod2(x, y)

    def test_zero_input_structure(self, rng):
        """With x = y = 0 the non-pad part of X is a permutation of four
        copies of the mask."""
        rec = draw_record(1, 4, rng)
        X, Y = expand_pair([0], [0], rec)
        inverse = np.argsort(rec.perm)
        X_pre = X[inverse]
        assert np.array_equal(X_pre[:4], np.repeat(rec.x_mask, 4))

    def test_batch_matches_scalar_semantics(self, rng):
        xs = rng.integers(0, 2, size=(500, 2), dtype=np.int8)
        ys = rng.integers(0, 2, size=(500, 2), dtype=np.int8)
        X, Y = randomize_batch(xs, ys, D=20, rng=rng)
        assert X.shape == (500, 28)
        before = (xs & ys).sum(axis=1) % 2
        after = (X & Y).sum(axis=1) % 2
        assert np.array_equal(before, after)

    def test_ip_preservation_sweep(self):
        assert verify_ip_preservation(20_000, seed=3) == 0

    def test_record_rejects_odd_padding(self):
        with pytest.raises(ValueError):
            RandomizationRecord(
                x_mask=np.array([0], dtype=np.int8),
                y_mask=np.array([0], dtype=np.int8),
                x_pad=np.array([1, 1], dtype=np.int8),
                y_pad=np.array([1, 0], dtype=np.int8),
                pos=np.arange(4),
            )

    def test_record_rejects_non_bits(self):
        with pytest.raises(ValueError, match="0 and 1"):
            RandomizationRecord(
                x_mask=np.array([2], dtype=np.int8),
                y_mask=np.array([0], dtype=np.int8),
                x_pad=np.array([1, 0], dtype=np.int8),
                y_pad=np.array([1, 0], dtype=np.int8),
                pos=np.arange(4),
            )

    @pytest.mark.parametrize(
        "fields, name",
        [
            ({"x_mask": [0], "y_mask": [0, 1]}, "x_mask and y_mask"),
            ({"x_pad": [1, 0], "y_pad": [1, 0, 0]}, "x_pad and y_pad"),
            ({"pos": [5, 0, 3, 3]}, "pos"),
            ({"pos": [5, 0, 3, 6]}, "pos"),
            ({"pos": [5, 0, 3, -1]}, "pos"),
            ({"pos": [5.0, 0.0, 3.0, 1.0]}, "pos"),
            ({"pos": [[5, 0], [3, 1]]}, "pos"),
            ({"pos": [5, 0, 3, 1, 2]}, "pos"),
        ],
    )
    def test_record_rejects_mismatched_fields(self, fields, name):
        """A record whose fields do not fit together names the field instead
        of expanding to a pair with repeated or missing coordinates: pos
        must be 4d distinct integer positions in range(4d + D)."""
        good = {"x_mask": [1], "y_mask": [0], "x_pad": [1, 0], "y_pad": [1, 0], "pos": [5, 0, 3, 1]}
        with pytest.raises(ValueError, match=f"^{name} "):
            record = RandomizationRecord(**{k: np.array(v) for k, v in {**good, **fields}.items()})
            expand_pair([1], [1], record)

    @pytest.mark.parametrize("x, y", [([1], [1]), ([1], [1, 0, 1]), ([1, 0, 1, 1], [1, 0, 1, 1])])
    def test_expand_pair_rejects_wrong_length(self, x, y):
        """A d = 3 record expands only inputs of length 3; a short input is
        not broadcast over the blocks."""
        rec = draw_record(3, 5, np.random.default_rng(0))
        with pytest.raises(ValueError, match="expected length 3"):
            expand_pair(x, y, rec)

    @pytest.mark.parametrize(
        "d, D, name",
        [(2, 0, "D"), (2, -1, "D"), (0, 5, "d"), (-1, 5, "d"),
         (2, 3.0, "D"), (2, True, "D"), (1.5, 5, "d"), (True, 5, "d")],
    )
    def test_draw_record_rejects_sizes(self, d, D, name):
        """Non-positive, non-integer and bool sizes are named, not passed
        on to numpy."""
        with pytest.raises(ValueError, match=f"^{name} must be a positive integer"):
            draw_record(d, D, np.random.default_rng(0))

    @pytest.mark.parametrize("d, D", [(np.int64(2), np.uint16(5)), (np.uint8(2), np.uint8(200))])
    def test_numpy_integer_sizes_accepted(self, d, D):
        """numpy integer sizes give the stream of the same Python ints; an
        unsigned byte would wrap in 2d + 2D if it were used as it is."""
        rng, ref = np.random.default_rng(0), np.random.default_rng(0)
        got, want = draw_record(d, D, rng), draw_record(int(d), int(D), ref)
        for name in RECORD_FIELDS:
            assert_same_bytes(getattr(got, name), getattr(want, name))

    @pytest.mark.parametrize(
        "n_trials, d_values, name",
        [
            (0, (1, 2), "n_trials"),
            (-5, (1, 2), "n_trials"),
            (10, (), "d_values"),
            (10, (0,), "d_values"),
            (10, (1, -2), "d_values"),
            (10, (1.5,), "d_values"),
            (10, (True,), "d_values"),
            (10.0, (1, 2), "n_trials"),
        ],
    )
    def test_empty_parity_sweep_is_an_error(self, n_trials, d_values, name):
        with pytest.raises(ValueError, match=f"^{name} "):
            verify_ip_preservation(n_trials, d_values=d_values)


class TestRandomizeBatchInputs:
    """randomize_batch names the argument it rejects instead of broadcasting,
    truncating or packing a non-bit into the other side."""

    @pytest.mark.parametrize(
        "xs, ys, D, name",
        [
            ([[1, 0]], [[1]], 4, "xs and ys"),
            ([1, 0], [1, 0], 4, "xs"),
            ([[1, 0]], [1, 0], 4, "ys"),
            ([[2]], [[1]], 4, "xs"),
            ([[1]], [[-1]], 4, "ys"),
            ([[0.5]], [[1]], 4, "xs"),
            ([[1]], [[1]], 0, "D"),
            ([[1]], [[1]], -2, "D"),
            ([[1]], [[1]], 2.5, "D"),
            (np.zeros((3, 0), dtype=np.int8), np.zeros((3, 0), dtype=np.int8), 4, "d"),
        ],
    )
    def test_rejected(self, xs, ys, D, name):
        with pytest.raises(ValueError, match=f"^{name} "):
            randomize_batch(xs, ys, D, np.random.default_rng(0))

    def test_bool_and_wide_int_inputs_give_int8(self):
        xs = np.array([[1, 0, 1]], dtype=np.int64)
        X, Y = randomize_batch(xs, xs.astype(bool), 5, np.random.default_rng(0))
        want = randomize_batch(xs.astype(np.int8), xs.astype(np.int8), 5, np.random.default_rng(0))
        for got, ref in zip((X, Y), want):
            assert_same_bytes(got, ref)


class TestExpandRows:
    """expand_pair on 2-d x, y: one expanded pair per row under one record."""

    @pytest.mark.parametrize("d", [1, 3, 6])
    @pytest.mark.parametrize("pads_per_bit", [0, 100])
    def test_rows_equal_per_row_expansion(self, d, pads_per_bit):
        """Byte for byte the 1-d expansions of the rows, stacked, at D = 1
        and D = 100 d."""
        rng = np.random.default_rng([d, pads_per_bit])
        rec = draw_record(d, max(1, pads_per_bit * d), rng)
        xs = rng.integers(0, 2, size=(64, d), dtype=np.int8)
        ys = rng.integers(0, 2, size=(64, d), dtype=np.int8)
        xs[0] = ys[0] = 0
        rows = [expand_pair(x, y, rec) for x, y in zip(xs, ys)]
        X, Y = expand_pair(xs, ys, rec)
        assert_same_bytes(X, np.stack([r[0] for r in rows]))
        assert_same_bytes(Y, np.stack([r[1] for r in rows]))

    @pytest.mark.parametrize(
        "x, y, message",
        [
            (np.zeros((2, 3)), np.zeros((3, 3)), "x and y must have the same shape"),
            (np.zeros((2, 4)), np.zeros((2, 4)), "x rows must have the record's length d = 3, got 4"),
            ([[0, 2, 1]], [[0, 0, 1]], "x entries must be exactly 0 or 1"),
            ([[0, 256, 1]], [[0, 0, 1]], "x entries must be exactly 0 or 1"),
            ([[0, 1, 1]], [[0, 0, -1]], "y entries must be exactly 0 or 1"),
            (np.zeros((1, 2, 3)), np.zeros((1, 2, 3)), "x must be 2-d"),
            (np.zeros((2, 3)), np.zeros((1, 2, 3)), "y must be 2-d"),
        ],
    )
    def test_rejected_rows_name_the_argument(self, x, y, message):
        rec = draw_record(3, 5, np.random.default_rng(0))
        with pytest.raises(ValueError, match=f"^{message}"):
            expand_pair(x, y, rec)


class TestIpCertificate:
    """The exact parity certificate passes, and fails when the block order
    or the sampler's pad condition is broken."""

    def test_passes_with_its_sizes(self):
        rep = ip_preservation_certificate()
        assert rep["pass"] and rep["failures"] == []
        assert rep["n_cases"] == 16
        assert rep["n_pad_pairs"] == sum(4**D for D in range(5))
        assert rep["n_injections"] == sum(perm(L, 4) for L in range(4, 9))
        assert rep["n_pair_cases"] == 256
        assert rep["n_expansions"] == 16 * (rep["n_pad_pairs"] + rep["n_injections"]) + 256
        assert rep["elapsed_s"] >= 0

    @pytest.mark.parametrize(
        "order",
        [
            ((True, False, True, False), (True, False, True, False)),
            ((True, False, True, False), (True, False, False, False)),
            ((False, False, True, False), (True, False, False, True)),
        ],
    )
    def test_fails_under_a_mutated_block_order(self, monkeypatch, order):
        monkeypatch.setattr(reduction, "_BLOCK_ORDER", order)
        rep = ip_preservation_certificate()
        assert not rep["pass"] and rep["failures"]

    def test_fails_when_columns_mix_coordinates(self, monkeypatch):
        """Rolling Y's block columns by one keeps every d = 1 case (all four
        columns are one coordinate's) but pairs coordinates apart at d = 2."""
        arrange = reduction._arrange
        monkeypatch.setattr(reduction, "_arrange",
                            lambda side, bits, mask: np.roll(arrange(side, bits, mask), side, axis=-1))
        rep = ip_preservation_certificate()
        assert not rep["pass"]
        assert rep["failures"] and all("pair_case" in f for f in rep["failures"])

    def test_fails_when_odd_pads_are_kept(self, monkeypatch):
        monkeypatch.setattr(reduction, "_odd_rows", lambda x_pad, y_pad: np.array([], dtype=np.intp))
        rep = ip_preservation_certificate()
        assert not rep["pass"]
        assert all(f["sampler_keeps"] for f in rep["failures"])

    def test_fails_when_even_pads_are_redrawn(self, monkeypatch):
        monkeypatch.setattr(reduction, "_odd_rows", lambda x_pad, y_pad: np.arange(len(x_pad)))
        assert not ip_preservation_certificate()["pass"]

    def test_fails_when_the_placement_moves_the_sides_apart(self, monkeypatch):
        place = reduction._place

        def apart(x, y, x_mask, y_mask, x_pad, y_pad, pos):  # Y's first two block columns swapped
            X, _ = place(x, y, x_mask, y_mask, x_pad, y_pad, pos)
            swapped = pos[:, [1, 0, *range(2, pos.shape[1])]]
            return X, place(x, y, x_mask, y_mask, x_pad, y_pad, swapped)[1]

        monkeypatch.setattr(reduction, "_place", apart)
        rep = ip_preservation_certificate()
        assert not rep["pass"]
        assert any("positions" in f for f in rep["failures"])

    def test_fails_when_the_sides_are_permuted_apart(self, monkeypatch):
        arrange = reduction._arrange

        def shifted(side, bits, mask):  # Y's first two columns rotated before the shared placement
            out = arrange(side, bits, mask)
            if side:  # (a rotation of all four block columns keeps the parity at d = 1)
                out[..., :2] = np.roll(out[..., :2], 1, axis=-1)
            return out

        monkeypatch.setattr(reduction, "_arrange", shifted)
        assert not ip_preservation_certificate()["pass"]


class _Short(Exception):
    """The sampler asked for more integers than its script holds; carries
    the range (low, high) of the request."""


class _Scripted:
    """Stands in for a generator: serves the integers of a fixed script in
    order, and raises _Short past its end."""

    def __init__(self, script):
        self.script, self.used = script, 0

    def integers(self, low, high, size):
        m = int(np.prod(size))
        if self.used + m > len(self.script):
            raise _Short(low, high)
        out = np.array(self.script[self.used : self.used + m], dtype=np.int64).reshape(size)
        self.used += m
        return out


def _position_law(k, L, max_redraws):
    """Exact law, as Fractions, of one row of _block_positions(1, k, L, .)
    over every script of uniform proposals with at most max_redraws
    redraws, and the mass of the scripts cut there."""
    law, cut, scripts = Counter(), Fraction(0), [([], Fraction(1))]
    while scripts:
        script, mass = scripts.pop()
        rng = _Scripted(script)
        try:
            pos = _block_positions(1, k, L, rng)
        except _Short as short:
            low, high = short.args
            if len(script) == k + max_redraws:
                cut += mass
            else:  # the next integer is uniform on the range the sampler asked for
                scripts += [(script + [v], mass / (high - low)) for v in range(low, high)]
            continue
        assert rng.used == len(script)
        law[tuple(pos[0].tolist())] += mass
    return law, cut


class TestPlacementLaw:
    """The block positions are exactly a uniform ordered choice, and placing
    the blocks there with the pads in order in the rest gives exactly the
    pair law of a uniform permutation of all columns."""

    @pytest.mark.parametrize("k, L", [(4, 5), (4, 6), (3, 4)])
    def test_positions_are_a_uniform_ordered_choice(self, k, L):
        """Every script that ends within the redraw cut gives an ordered
        choice, and each ordered choice gets the same mass, at every cut."""
        for max_redraws in range(3):
            law, cut = _position_law(k, L, max_redraws)
            assert set(law) == set(itertools.permutations(range(L), k))
            assert set(law.values()) == {(1 - cut) / perm(L, k)}
            assert cut < 1

    @pytest.mark.parametrize("D", [1, 2])
    def test_law_equals_brute_force(self, D):
        masks = np.array(list(itertools.product((0, 1), repeat=2)), dtype=np.int8)
        pads = np.array(
            [p for p in itertools.product((0, 1), repeat=2 * D)
             if sum(a & b for a, b in zip(p[:D], p[D:])) % 2 == 0],
            dtype=np.int8,
        )
        pos = np.array(list(itertools.permutations(range(4 + D), 4)))
        m, p, q = np.array(list(itertools.product(*map(range, (len(masks), len(pads), len(pos)))))).T
        for x, y in itertools.product((0, 1), repeat=2):
            col = np.ones((len(m), 1), dtype=np.int8)
            X, Y = _place(x * col, y * col, masks[m, :1], masks[m, 1:], pads[p, :D], pads[p, D:], pos[q])
            law = Counter(zip(map(tuple, X.tolist()), map(tuple, Y.tolist())))
            assert {k: Fraction(c, len(m)) for k, c in law.items()} == brute_force_pair_law((x,), (y,), D)


def assert_same_bytes(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


RECORD_FIELDS = ("x_mask", "y_mask", "x_pad", "y_pad", "perm")


class TestReferenceImplementations:
    """The one arrangement table and the one batched sampler reproduce the
    written-out arrangements and the per-row rejection sampler byte for
    byte, and leave the generator where they left it."""

    @pytest.mark.parametrize("d", range(1, 7))
    def test_sampler_and_expansion_match(self, d):
        for D in (1, 5, 100 * d):
            for seed in range(3):
                inputs = np.random.default_rng([seed, d])
                xs, ys = inputs.integers(0, 2, size=(2, 40, d), dtype=np.int8)
                rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
                for got, want in zip(
                    randomize_batch(xs, ys, D, rng), concatenated_randomize_batch(xs, ys, D, ref)
                ):
                    assert_same_bytes(got, want)
                assert rng.bit_generator.state == ref.bit_generator.state
                for x, y in zip(xs[:4], ys[:4]):
                    rec = draw_record(d, D, rng)
                    for name, want in zip(RECORD_FIELDS, per_row_draw_record(d, D, ref)):
                        assert_same_bytes(getattr(rec, name), want)
                    assert rng.bit_generator.state == ref.bit_generator.state
                    for got, want in zip(expand_pair(x, y, rec), flip_order_expand_pair(x, y, rec)):
                        assert_same_bytes(got, want)
                    for got, want in zip(block_input_map(rec), filled_block_input_map(rec, d)):
                        assert_same_bytes(got, want)

    @pytest.mark.parametrize("d", range(1, 7))
    def test_draw_record_is_the_one_row_batch(self, d):
        for D in (1, 2, 3, 7, 100 * d):
            for seed in range(4):
                x, y = np.random.default_rng([seed, d]).integers(0, 2, size=(2, d), dtype=np.int8)
                rng, batch_rng = np.random.default_rng(seed), np.random.default_rng(seed)
                for _ in range(3):
                    one = expand_pair(x, y, draw_record(d, D, rng))
                    batch = randomize_batch(x[None], y[None], D, batch_rng)
                    for got, want in zip(one, batch):
                        assert_same_bytes(got, want[0])
                    assert rng.bit_generator.state == batch_rng.bit_generator.state

    @pytest.mark.parametrize("d", range(1, 7))
    def test_block_signatures_match_loop(self, d):
        rng = np.random.default_rng(d)
        inputs = [([0] * d, [0] * d), ([1] * d, [1] * d)]
        inputs += [tuple(rng.integers(0, 2, size=(2, d))) for _ in range(4)]
        for x, y in inputs:
            assert_same_bytes(block_signatures(x, y), looped_block_signatures(x, y))


def _enumerated_law(x, y):
    return dict(Counter(map(tuple, block_signatures(x, y).tolist())))


class TestPackedBits:
    """_bits reads ceil(m / 8) bytes per row most significant bit first and
    drops the rest of the last byte; the sampler's first round reads its
    four fields from disjoint stretches of one row."""

    @pytest.mark.parametrize("m", [1, 7, 8, 9, 2 * 2 + 2 * 7])
    def test_bits_are_bytes_read_high_bit_first_without_tail(self, m):
        rng, ref = np.random.default_rng(m), np.random.default_rng(m)
        got = reduction._bits(rng, 64, m)
        assert_same_bytes(got, hand_decoded_bits(ref, 64, m))
        assert rng.bit_generator.state == ref.bit_generator.state

    def test_first_round_fields_are_disjoint(self):
        """Rows even on the first round keep its bits as x_mask, y_mask,
        x_pad, y_pad, in that order; every row keeps its masks."""
        d, D = 2, 7
        rng, ref = np.random.default_rng(0), np.random.default_rng(0)
        fields = reduction._sample(64, d, D, rng)[:4]
        first = hand_decoded_bits(ref, 64, 2 * d + 2 * D)
        even = ip_mod2(first[:, 2 * d:2 * d + D], first[:, 2 * d + D:]) == 0
        assert 0 < even.sum() < 64
        assert_same_bytes(np.concatenate([f[even] for f in fields], axis=1), first[even])
        assert_same_bytes(np.concatenate(fields[:2], axis=1), first[:, :2 * d])


class TestMaskLaw:
    """The mask law by coordinate type against the 4^d mask enumeration."""

    @pytest.mark.parametrize("d", range(1, 6))
    def test_every_input(self, d):
        for x, y in _bit_inputs(d):
            assert _mask_law(*count_signature(x, y)) == _enumerated_law(x, y)

    def test_d6_every_class_and_random_inputs(self):
        inputs = [first for _, first in _type_classes(6)]
        inputs += list(np.random.default_rng(6).integers(0, 2, size=(16, 2, 6)))
        for x, y in inputs:
            law = _mask_law(*count_signature(x, y))
            assert law == _enumerated_law(x, y) and sum(law.values()) == 4**6

    @pytest.mark.parametrize("d", range(1, 5))
    def test_type_classes_list_first_inputs_in_order(self, d):
        first = {}
        for x, y in _bit_inputs(d):  # x-major, bits read most significant first
            first.setdefault(count_signature(x, y), [list(x[::-1]), list(y[::-1])])
        assert [(t, f) for t, f in _type_classes(d)] == list(first.items())


class TestCountSignature:
    def test_worked_examples(self):
        assert count_signature([1, 1], [1, 0]) == (0, 0, 1, 1)
        assert count_signature([0, 0, 0, 0], [0, 0, 0, 0]) == (4, 0, 0, 0)

    def test_partition_property(self, rng):
        for _ in range(50):
            X = rng.integers(0, 2, 17)
            Y = rng.integers(0, 2, 17)
            assert sum(count_signature(X, Y)) == 17


class TestExactLaw:
    def test_total_mass_is_one(self):
        law = exact_count_distribution([1], [0], D=8)
        assert total_mass(law) == 1

    def test_even_pad_probability_at_D2(self):
        # 10 of the 16 pads have an even both-ones count: 5/8 = 1/2 + 2^-3
        weights = even_pad_weights(2)
        assert sum(weights.values()) == 10
        assert Fraction(sum(weights.values()), 4**2) == Fraction(5, 8)

    def test_mean_counts_match_direct_summation(self):
        """Arrangement block contributes exactly (d, d, d, d) in expectation;
        the pad block's conditional mean is computed by direct summation and
        differs from D/4 only through the even-count conditioning."""
        x, y = [1, 0], [1, 1]
        d, D = 2, 8
        law = exact_count_distribution(x, y, D=D)
        means = expected_counts(law)

        sigs = block_signatures(x, y)
        assert [Fraction(int(s), len(sigs)) for s in sigs.sum(axis=0)] == [Fraction(d)] * 4

        weights = even_pad_weights(D)
        norm = sum(weights.values())
        pad_mean = [
            Fraction(sum(sig[i] * w for sig, w in weights.items()), norm) for i in range(4)
        ]
        for i in range(4):
            assert means[i] == d + pad_mean[i]
        # conditioning perturbs the pad means away from D/4 by O(2^-D)
        assert pad_mean[3] != Fraction(D, 4)
        assert abs(pad_mean[3] - Fraction(D, 4)) < Fraction(1, 2 ** (D // 2))

    def test_monte_carlo_cross_validation(self):
        """Total-variation gap between the exact law and 10^6 sampled
        signatures stays within 0.01 at d=1, D=8."""
        x, y = [1], [0]
        D = 8
        law = exact_count_distribution(x, y, D=D)
        rng = np.random.default_rng(2024)
        n = 1_000_000
        xs = np.tile(np.array([x], dtype=np.int8), (n, 1))
        ys = np.tile(np.array([y], dtype=np.int8), (n, 1))
        X, Y = randomize_batch(xs, ys, D=D, rng=rng)
        codes = 2 * X + Y
        n1 = (codes == 0).sum(axis=1)
        n2 = (codes == 1).sum(axis=1)
        n3 = (codes == 2).sum(axis=1)
        counts = defaultdict(int)
        L = 4 + D
        for a, b, c in zip(n1.tolist(), n2.tolist(), n3.tolist()):
            counts[(a, b, c, L - a - b - c)] += 1
        support = set(counts) | set(law.numerators)
        tv = sum(
            abs(Fraction(counts.get(s, 0), n) - law.prob(s)) for s in support
        ) / 2
        assert float(tv) <= 0.01

    def test_matches_signature_brute_force(self):
        for xb, yb, D in [((1,), (0,), 6), ((1, 0), (1, 1), 4), ((0, 0), (1, 0), 3)]:
            brute = brute_force_signature_law(xb, yb, D)
            law = exact_count_distribution(xb, yb, D=D)
            assert set(brute) == set(law.numerators)
            for sig, p in brute.items():
                assert law.prob(sig) == p

    def test_enumeration_budget(self):
        """d itself is not capped: the budget bounds the mask signatures of
        the input's type class times the even pad signatures."""
        assert total_mass(exact_count_distribution([1] * 7, [0] * 7, D=4)) == 1
        # 8 mask signatures x 6391 pads: admitted, though 4^7 C(43,3) is 2.0e8
        assert total_mass(exact_count_distribution([1] * 7, [0] * 7, D=40)) == 1
        # 120 mask signatures x 18 445 pads = 2.2e6 terms, past the budget
        with pytest.raises(EnumerationBudget, match="120 mask signatures"):
            exact_count_distribution([0] * 7, [0] * 7, D=58)
        # one mask signature x 2.3e6 pads: rejected before the pad table is built
        with pytest.raises(EnumerationBudget, match="1 mask signatures"):
            exact_count_distribution([1], [1], D=300)

    def test_numerators_match_per_mask_convolution(self):
        """Convolving each distinct mask signature once, weighted by its
        multiplicity, gives the numerators of convolving all 4^d rows; the
        grid holds inputs with all-distinct and with repeated signatures."""
        repeats_seen = set()
        for d, Ds in ((1, (1, 4, 9)), (2, (1, 3, 6))):
            for x, y in itertools.product(itertools.product((0, 1), repeat=d), repeat=2):
                mults = Counter(map(tuple, block_signatures(x, y).tolist())).values()
                repeats_seen.add(max(mults) > 1)
                for D in Ds:
                    law = exact_count_distribution(x, y, D=D)
                    oracle = per_mask_count_numerators(x, y, D)
                    assert law.numerators == oracle
                    assert law.denominator == sum(oracle.values())
        assert repeats_seen == {False, True}


class TestL2Oracle:
    def test_matches_brute_force_at_tiny_size(self):
        for xb, yb in itertools.product([(0,), (1,)], repeat=2):
            law = brute_force_pair_law(xb, yb, D=2)
            brute = sum(p * p for p in law.values())
            assert exact_l2_norm_squared(xb, yb, D=2) == brute

    def test_matches_permutation_brute_force_at_D4(self):
        # 40320 permutations per mask/pad combination, vectorized; checks
        # the arrangement-uniformity factor at a size beyond the tiny case
        brute = brute_force_l2_squared_with_permutations((1,), (0,), D=4)
        assert exact_l2_norm_squared([1], [0], D=4) == brute

    def test_conditional_uniformity_at_tiny_size(self):
        """Outcomes sharing a count signature are equally likely: the fact
        that licenses the closed-form norm."""
        law = brute_force_pair_law((1,), (0,), D=2)
        by_sig = defaultdict(set)
        for (X, Y), p in law.items():
            by_sig[count_signature(X, Y)].add(p)
        assert all(len(probs) == 1 for probs in by_sig.values())

    def test_bound_holds_small(self):
        # D = 100 d arms the bound already at d = 1
        val = exact_l2_norm_squared([1], [1], D=100)
        assert val <= Fraction(64, 4**104)

    def test_symmetry_under_swap_and_permutation(self):
        for D in (4, 8):
            a = exact_l2_norm_squared([1], [0], D=D)
            assert a == exact_l2_norm_squared([0], [1], D=D)  # swap x <-> y
            b = exact_l2_norm_squared([1, 1], [0, 1], D=D)
            assert b == exact_l2_norm_squared([0, 1], [1, 1], D=D)  # swap
            assert b == exact_l2_norm_squared([1, 1], [1, 0], D=D)  # reverse both

    def test_matches_fraction_per_signature_sum(self):
        for d in (1, 2):
            for x, y in itertools.product(itertools.product((0, 1), repeat=d), repeat=2):
                for D in range(1, 13):
                    assert exact_l2_norm_squared(x, y, D) == fraction_l2_norm_squared(x, y, D)

    def test_bound_report_sweeps_every_input(self):
        d, D = 2, 6
        bound = Fraction(64, 4 ** (4 * d + D))
        vecs = list(itertools.product((0, 1), repeat=d))
        ratios = {(x, y): exact_l2_norm_squared(x, y, D) / bound for x in vecs for y in vecs}
        rep = l2_bound_report(d, D)
        assert rep["max_ratio"] == float(max(ratios.values()))
        x, y = (tuple(v) for v in rep["worst_input"])
        assert ratios[(x, y)] == max(ratios.values())
        assert rep["pass"] and not rep["bound_armed"]
        armed = l2_bound_report(1, 100)
        assert armed["pass"] and armed["bound_armed"] and armed["max_ratio"] < 1

    def test_uniform_baseline(self):
        # the uniform law on pairs would give exactly 4^-(4d+D)
        d, D = 1, 2
        n_outcomes = 4 ** (4 * d + D)
        uniform_l2_sq = Fraction(1, n_outcomes)
        assert uniform_l2_sq == Fraction(1, 4 ** (4 * d + D))
        # and the randomized law's norm is within 64x of it at full scale
        val = exact_l2_norm_squared([1], [1], D=100)
        assert val <= 64 * Fraction(1, 4 ** (4 + 100))


def _bit_inputs(d):
    return list(itertools.product(itertools.product((0, 1), repeat=d), repeat=2))


class TestL2ClosedForm:
    """The closed-form norm against the count-law convolution it replaced."""

    @pytest.mark.parametrize(
        "d, Ds", [(1, [*range(1, 25), 100]), (2, range(1, 13)), (3, range(1, 7))]
    )
    def test_equals_convolution_oracle(self, d, Ds):
        for D in Ds:
            for x, y in _bit_inputs(d):
                assert exact_l2_norm_squared(x, y, D) == convolution_l2_norm_squared(x, y, D)

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_equals_list_arithmetic(self, d):
        """The object-array convolutions equal the list products they
        replaced, norm and pair count, on every type class."""
        for D in (1, 7, 100 * d, 10**4):
            for types, (x, y) in _type_classes(d):
                assert _l2_closed_form(types, D) == list_l2_closed_form(x, y, D)

    def test_equals_list_arithmetic_heaviest_d6_class(self):
        """(5, 1, 0, 0) sums the most shift pairs of any d = 6 class (6328,
        tied with (5, 0, 1, 0))."""
        (x, y), = (first for types, first in _type_classes(6) if types == (5, 1, 0, 0))
        value, pairs = _l2_closed_form((5, 1, 0, 0), 600)
        assert pairs == 6328 and (value, pairs) == list_l2_closed_form(x, y, 600)

    def test_paper_regime_d2_passes_exactly(self):
        """d = 2, D = 200: the bound 64 4^-(4d+D) holds on every input, with a
        float sum over all 1.5M count signatures agreeing on the worst one."""
        rep = l2_bound_report(2, 200)
        assert rep["pass"] and rep["bound_armed"] and rep["max_ratio"] < 1
        assert rep["n_inputs"] == 16 and rep["n_classes"] == 10 and rep["elapsed_s"] >= 0
        classes = {count_signature(x, y): (x, y) for x, y in _bit_inputs(2)}
        assert len(classes) == 10
        pairs = 0
        for x, y in classes.values():
            parity = Counter(s[3] % 2 for s in set(map(tuple, block_signatures(x, y).tolist())))
            pairs += sum(k * (k + 1) // 2 for k in parity.values())
        assert rep["n_shift_pairs"] == pairs
        x, y = (tuple(v) for v in rep["worst_input"])
        exact = exact_l2_norm_squared(x, y, 200) * 4**208
        assert rep["max_ratio"] == float(exact / 64)
        assert float(exact) == pytest.approx(float_l2_ratio_to_uniform(x, y, 200), rel=1e-9)
        for x, y in _bit_inputs(2):
            assert exact_l2_norm_squared(x, y, 200) * 4**208 <= exact

    def test_report_fields_kept(self):
        """The class sweep reports what a sweep over every input in x-major
        order reports, the first worst input included; the count-law
        convolution is the reference up to d = 2, the per-input norm beyond."""
        for d, D in ((1, 100), (2, 6), (3, 12), (4, 16)):
            rep = l2_bound_report(d, D)
            norm = convolution_l2_norm_squared if d <= 2 else exact_l2_norm_squared
            bound = Fraction(64, 4 ** (4 * d + D))
            vecs = [[(i >> j) & 1 for j in range(d)] for i in range(2**d)]  # x-major order
            ratios = [(norm(x, y, D) / bound, [x, y]) for x in vecs for y in vecs]
            worst, worst_input = max(ratios, key=lambda r: r[0])
            assert rep["check"] == "pair-law-l2-norm"
            assert rep["parameters"] == {"d": d, "D": D}
            assert rep["max_ratio"] == float(worst)
            assert rep["worst_input"] == worst_input
            assert rep["bound_armed"] == (D >= 100 * d)
            assert rep["pass"] is True
            assert rep["n_inputs"] == 4**d
            assert rep["n_classes"] == comb(d + 3, 3)

    def test_d7_single_norm_equals_convolution_oracle(self):
        """The sweep's d cap does not apply to one norm: at d = 7 it is checked
        against the count-law convolution at small D."""
        for x, y, D in (([0] * 7, [0] * 7, 1), ([1, 0, 1, 1, 0, 0, 1], [0, 1, 1, 0, 0, 1, 1], 1),
                        ([1, 0, 1, 1, 0, 0, 1], [0, 1, 1, 0, 0, 1, 1], 2)):
            assert exact_l2_norm_squared(x, y, D) == convolution_l2_norm_squared(x, y, D)

    def test_size_checks(self):
        check_l2_size(6, 1000)
        with pytest.raises(EnumerationBudget):
            check_l2_size(7, 1)
        with pytest.raises(EnumerationBudget):
            l2_bound_report(7, 1)
        with pytest.raises(EnumerationBudget):
            exact_l2_norm_squared([1], [0], 200_000)
        with pytest.raises(EnumerationBudget):
            l2_bound_report(1, 200_000)
        with pytest.raises(ValueError):
            check_l2_size(1, -1)
        check_a1_size(4, 8)
        for d, D in ((3, 4), (4, 6), (0, 4)):
            with pytest.raises(ValueError):
                check_a1_size(d, D)
        check_a2_size(3, Fraction(1, 144))
        check_a2_size(16, Fraction(1, 768))
        with pytest.raises(EnumerationBudget):
            check_a2_size(17, Fraction(1, 816))
        with pytest.raises(ValueError):
            check_a2_size(2, Fraction(1, 48))


def test_a1_work_budget():
    """Every ratio-bound size the suite, the benchmark and verify-all run is
    admitted, and so is the paper's D = 100 d up to the d cap of 64; past
    d = 64 or D + d = 200 000 a size is rejected before any work."""
    for d, D in [(4, 4), (4, 8), (4, 16), (8, 16), (4, 400), (8, 800), (16, 1600),
                 (64, 6400), (64, 199_936), (4, 199_996)]:
        check_a1_size(d, D)
    for d, D in [(68, 4), (68, 6800), (400, 4), (4, 200_000), (64, 200_000), (8, 10**9)]:
        with pytest.raises(EnumerationBudget):
            check_a1_size(d, D)
    with pytest.raises(EnumerationBudget):
        multinomial_square_ratio_report(4, 200_000)


def even_pad_weights(D):
    """The even-pad table as a dict from signature tuples to Python ints."""
    sigs, weights = _even_pad_table(D)
    return dict(zip(map(tuple, sigs.tolist()), weights.tolist()))


def test_even_pad_weights_equal_multinomials():
    for D in range(0, 21):
        expected = {c: multinomial(D, c) for c in compositions4(D) if c[3] % 2 == 0}
        assert even_pad_weights(D) == expected
        sigs, weights = _even_pad_table(D)
        assert sigs.tolist() == sorted(sigs.tolist())
        assert not sigs.flags.writeable and not weights.flags.writeable


def test_even_pad_weights_int64_while_their_total_fits():
    """(4^D + 2^D)/2 is below 2^63 up to D = 31; from D = 32 the weights are
    Python ints, and both tables keep the multinomials exactly."""
    for D, dtype in ((31, np.int64), (32, object)):
        sigs, weights = _even_pad_table(D)
        assert weights.dtype == dtype
        assert sum(weights.tolist()) == (4**D + 2**D) // 2
        for sig, w in zip(sigs.tolist()[::97], weights.tolist()[::97]):
            assert type(w) is int and w == multinomial(D, sig)


def test_even_pad_mass_check_raises(monkeypatch):
    """The table's mass check is an exception, not an assert, so it holds
    under python -O: one wrong binomial makes the table refuse to build."""
    true_comb = reduction.math.comb
    monkeypatch.setattr(reduction.math, "comb", lambda n, k: true_comb(n, k) + (n == 3 and k == 1))
    _even_pad_table.cache_clear()
    try:
        with pytest.raises(ArithmeticError, match=r"even-pad weights at D = 5 sum to"):
            _even_pad_table(5)
    finally:
        _even_pad_table.cache_clear()


def test_only_int64_pad_tables_are_cached():
    """A law summed in int64 reads the cached pad table; one summed in Python
    ints builds its table per call, so the cache holds no big-integer table."""
    _even_pad_table.cache_clear()
    exact_count_distribution([1], [1], 24)
    exact_count_distribution([1], [1], 40)
    assert _even_pad_table.cache_info().currsize == 1
    exact_count_distribution([0], [1], 24)
    assert _even_pad_table.cache_info().hits == 1


@pytest.mark.parametrize("d, D", [(1, 30), (1, 31), (2, 29), (2, 30)])
def test_count_law_at_the_int64_switch(d, D):
    """The law is summed in int64 exactly when its denominator is below 2^63:
    (1, 30) and (2, 29) are the last such sizes, (1, 31) and (2, 30) the
    first summed in Python ints.  One input per type class on each side
    matches the per-mask convolution."""
    denom = 4**d * (4**D + 2**D) // 2
    assert (denom < 2**63) == (D == 31 - d)
    for _, (x, y) in _type_classes(d):
        law = exact_count_distribution(x, y, D)
        assert law.numerators == per_mask_count_numerators(x, y, D)
        assert law.denominator == denom


def test_count_law_at_large_d_with_few_terms():
    """Large d with few terms sums only those terms: [1]^400 has one mask
    signature, (400, 400, 400, 400) of multiplicity 4^400, so at D = 1 the
    law is the three pads without a (1,1) column shifted by it; [0, 1]^50
    against [1, 0]^50 has 2601 mask signatures over 4d + D = 401, and its
    law is their term-by-term convolution with the pads."""
    law = exact_count_distribution([1] * 400, [1] * 400, 1)
    assert law.denominator == 3 * 4**400 and law.total_length == 1601
    assert law.numerators == {(401, 400, 400, 400): 4**400, (400, 401, 400, 400): 4**400,
                              (400, 400, 401, 400): 4**400}
    x, y = [0, 1] * 50, [1, 0] * 50
    mask_law = _mask_law(*count_signature(x, y))
    assert len(mask_law) == 2601
    expected = defaultdict(int)
    for sig, mult in mask_law.items():
        for pad in ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)):
            expected[tuple(s + p for s, p in zip(sig, pad))] += mult
    law = exact_count_distribution(x, y, 1)
    assert law.numerators == expected and law.denominator == 3 * 4**100


def test_count_law_refuses_keys_past_int64(monkeypatch):
    """Packed keys need 4 (d - n11) + D < 2^21.  A real mask law that wide
    would take far too long to build, so a two-signature stand-in spans it.
    The input has no (0,0) coordinates, so the budget on their mask
    signatures, checked first, admits it."""
    monkeypatch.setattr(reduction, "_mask_law", lambda *t: {(4 * sum(t), 0, 0, 0): 1, (0, 0, 0, 4 * sum(t)): 1})
    with pytest.raises(EnumerationBudget, match=r"4 \(d - n11\) \+ D < 2\^21, got 2097153"):
        exact_count_distribution([0] * 2**19, [1] * 2**19, 1)


@pytest.mark.parametrize(
    "law, x, y, count",
    [(exact_count_distribution, [0] * 200, [0] * 200, "at least 1373701 mask signatures"),
     (exact_l2_norm_squared, [0] * 100, [0] * 100, "up to 176851 mask signatures")],
)
def test_exact_laws_refuse_before_the_mask_law(monkeypatch, law, x, y, count):
    """The count law's least mask signatures times its pads, and the L2
    norm's most mask signatures, are refused before _mask_law runs."""
    monkeypatch.setattr(reduction, "_mask_law", lambda *t: pytest.fail("_mask_law ran"))
    start = time.perf_counter()
    with pytest.raises(EnumerationBudget, match=count):
        law(x, y, 1)
    assert time.perf_counter() - start < 0.1


def test_l2_cap_admits_every_class_at_d7(monkeypatch):
    """Every type class at d = 7 reaches the closed form; at d = 8 the class
    with six (0,0), one (0,1) and one (1,0) coordinates does not."""
    monkeypatch.setattr(reduction, "_l2_closed_form", lambda types, D: (Fraction(0), 0))
    for _, (x, y) in _type_classes(7):
        assert exact_l2_norm_squared(x, y, 1) == 0
    with pytest.raises(EnumerationBudget, match="up to 336 mask signatures"):
        exact_l2_norm_squared([0] * 6 + [0, 1], [0] * 6 + [1, 0], 1)


def _scaled_lhs(split, D):
    """The LHS from _a1_lhs's integer A: 4^(D-d) A / perm(D + d, d)."""
    d = sum(split)
    return Fraction(_a1_lhs(split, D) * 4**D, 4**d * perm(D + d, d))


class TestRatioBound:
    def test_balanced_split_hand_value(self):
        """At d = D = 4 the balanced split has spread 0, so the bound is
        (1 + 1)^{3/2} = 2 sqrt 2; the exact sum is checked against an
        independently computed rational value."""
        report = multinomial_square_ratio_report(4, 4)
        assert report["pass"]
        lhs = Fraction(0)
        for comp in itertools.product(range(5), repeat=3):
            if sum(comp) <= 4:
                full = comp + (4 - sum(comp),)
                lhs += Fraction(
                    multinomial(4, full) ** 2,
                    multinomial(8, tuple(c + 1 for c in full)),
                )
        assert float(lhs) <= 2 * 2**0.5
        # worst split is the balanced one and its ratio matches the report
        assert report["worst_split"] == [1, 1, 1, 1]
        assert report["max_ratio"] == pytest.approx(float(lhs) / (2 * 2**0.5), rel=1e-9)

    def test_all_splits_pass(self):
        for d, D in [(4, 8), (8, 16)]:
            report = multinomial_square_ratio_report(d, D)
            assert report["pass"]
            assert report["max_ratio"] < 1.0
            assert report["n_splits"] == comb(d + 3, 3)

    def test_integer_lhs_matches_fraction_per_composition_sum(self):
        """The Fraction-per-composition oracle on every split of a few sizes,
        and on one split per orbit of the permutations (both sides are
        symmetric in the split; every split is checked against the integer
        composition sum below) for d = 4, 8, 12 and D = 1..8."""
        for d, D in [(4, 4), (4, 8), (8, 4)]:
            for split in compositions4(d):
                assert _scaled_lhs(split, D) == fraction_a1_lhs(split, D)
        for d in (4, 8, 12):
            for split in {tuple(sorted(s)) for s in compositions4(d)}:
                for D in range(1, 9):
                    assert _scaled_lhs(split, D) == fraction_a1_lhs(split, D)

    @pytest.mark.parametrize("d", [4, 8, 12])
    def test_closed_form_equals_composition_sum(self, d):
        """The closed form against the integer sum over all C(D+3,3)
        compositions, on every split, odd D included."""
        for D in range(1, 21):
            for split in compositions4(d):
                assert _scaled_lhs(split, D) == composition_a1_lhs(split, D)

    @pytest.mark.parametrize("d, D", [(d, D) for d in (4, 8) for D in (4, 8, 12, 16)])
    def test_report_equals_per_split_sweep(self, d, D):
        """One evaluation per sorted split reports what evaluating every split
        from its composition sum reports, the first worst split included."""
        rep = multinomial_square_ratio_report(d, D)
        oracle = composition_a1_report(d, D)
        assert {k: rep[k] for k in oracle} == oracle
        assert rep["n_terms"] == len({tuple(sorted(s)) for s in compositions4(d)}) * (min(d, D) + 1)

    def test_divisibility_enforced(self):
        with pytest.raises(ValueError):
            multinomial_square_ratio_report(3, 4)


class TestMgfBound:
    def test_d1_exhaustive(self):
        report = mgf_bound_report(1, Fraction(1, 48))
        assert report["pass"]
        assert report["n_inputs"] == 4
        assert report["max_ratio"] < 1.0

    def test_all_ones_input_is_deterministic(self):
        # every mask arrangement of the all-ones pair has signature (d,..,d)
        for d in (1, 2, 3):
            sigs = block_signatures([1] * d, [1] * d)
            assert np.array_equal(sigs, np.full((4**d, 4), d))
            assert _mask_law(0, 0, 0, d) == {(d, d, d, d): 4**d}

    def test_d3_exhaustive(self):
        report = mgf_bound_report(3, Fraction(1, 144))
        assert report["pass"]
        assert report["n_inputs"] == 64

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_report_matches_per_input_sweep(self, d):
        """The class sweep reports what one 220-bit exponential per mask row
        of every input reports, the first worst input in x-major order
        included."""
        s = Fraction(1, 48 * d)
        ratios = per_input_mgf_ratios(d, s)
        worst = max(ratios.values())
        report = mgf_bound_report(d, s)
        assert report["max_ratio"] == worst
        assert report["worst_input"] == tuple(map(list, next(k for k, r in ratios.items() if r == worst)))
        assert report["n_inputs"] == 4**d and report["n_classes"] == comb(d + 3, 3)
        assert report["pass"] and report["failures"] == 0 and report["elapsed_s"] >= 0

    def test_large_d_passes(self):
        report = mgf_bound_report(12, Fraction(1, 48 * 12))
        assert report["pass"] and report["max_ratio"] < 1.0
        assert report["n_inputs"] == 4**12 and report["n_classes"] == 455

    def test_s_range_enforced(self):
        with pytest.raises(ValueError):
            mgf_bound_report(1, Fraction(1, 24))


def _exp_oracle(p, q):
    """e^(p/q) as a Fraction with relative error below 2^-(_EXP_BITS + 60), from mpmath."""
    with mp.workprec(_EXP_BITS + 80 + 2 * p // q):
        man, exp = mp.exp(mp.mpf(p) / q).man_exp
    return Fraction(man) * Fraction(2) ** exp


def _scaled_exp(monkeypatch, c):
    """Scale both of _exp_bounds' bounds by the rational c (lo down, hi up),
    so that the reports decide against c e^x instead of e^x."""
    exact = reduction._exp_bounds

    def scaled(p, q):
        lo, hi, K = exact(p, q)
        return lo * c.numerator // c.denominator, -(-hi * c.numerator // c.denominator), K

    monkeypatch.setattr(reduction, "_exp_bounds", scaled)


class TestExactDecision:
    """The bound reports decide against rational bounds on exp, with no slack."""

    @pytest.mark.parametrize("p, q", [(1, 1), (3, 7), (1, 768), (96, 4), (24576, 4), (7, 3)])
    def test_exp_bounds_bracket_and_decide_at_1e15(self, p, q):
        lo, hi, K = _exp_bounds(p, q)
        exact = _exp_oracle(p, q) * 2**_EXP_BITS
        assert lo <= exact <= hi and K >= 1
        assert Fraction(hi, lo) - 1 < Fraction(1, 2**240)
        above, below = exact * (1 + Fraction(1, 10**15)), exact * (1 - Fraction(1, 10**15))
        assert not above <= lo and below <= lo  # "v <= e^(p/q)", as A1 decides it
        assert hi <= above and not hi <= below  # "e^(p/q) <= v", as A2 decides it

    def test_exp_of_zero_is_exact(self):
        lo, hi, _ = _exp_bounds(0, 5)
        assert lo == hi == 2**_EXP_BITS

    @pytest.mark.parametrize("excess, passes", [(Fraction(1, 10**12), False), (-Fraction(1, 10**12), True)])
    def test_a1_worst_ratio_at_one_plus_1e12(self, monkeypatch, excess, passes):
        """A right side that puts the worst ratio at 1 + 1e-12 fails, one at
        1 - 1e-12 passes; the former slack of 1e-10 passed both."""
        plain = multinomial_square_ratio_report(4, 400)
        # the ratio scales as c^(-1/2) when exp is scaled by c
        _scaled_exp(monkeypatch, (Fraction(plain["max_ratio"]) / (1 + excess)) ** 2)
        rep = multinomial_square_ratio_report(4, 400)
        assert rep["max_ratio"] == pytest.approx(1 + float(excess), abs=1e-15)
        assert rep["worst_split"] == plain["worst_split"]
        assert rep["pass"] is passes
        assert [f["split"] for f in rep["failures"]] == ([] if passes else [[1, 1, 1, 1]])

    @pytest.mark.parametrize("excess, passes", [(Fraction(1, 10**12), False), (-Fraction(1, 10**12), True)])
    def test_a2_worst_ratio_at_one_plus_1e12(self, monkeypatch, excess, passes):
        s = Fraction(1, 48 * 3)
        plain = mgf_bound_report(3, s)
        _scaled_exp(monkeypatch, (1 + excess) / Fraction(plain["max_ratio"]))
        rep = mgf_bound_report(3, s)
        assert rep["max_ratio"] == pytest.approx(1 + float(excess), abs=1e-15)
        assert rep["worst_input"] == plain["worst_input"]
        assert rep["pass"] is passes
        assert (rep["failures"] == 0) is passes

    def test_reports_state_the_size_of_the_decision(self, monkeypatch):
        """One exponential bound per distinct argument, and one LHS per sorted split."""
        calls = []
        exact_lhs = reduction._a1_lhs
        monkeypatch.setattr(reduction, "_a1_lhs", lambda split, D: calls.append(split) or exact_lhs(split, D))
        a1 = multinomial_square_ratio_report(8, 800)
        spreads = {sum((di - 2) ** 2 for di in s) for s in compositions4(8)}
        assert a1["n_exp_bounds"] == len(spreads) and a1["max_taylor_order"] >= 1
        assert sorted(calls) == sorted({tuple(sorted(s)) for s in compositions4(8)})
        a2 = mgf_bound_report(2, Fraction(1, 96))
        devs = {sum((c - 2) ** 2 for c in sig) for t in compositions4(2) for sig in _mask_law(*t)}
        assert a2["n_exp_bounds"] == len(devs) and a2["max_taylor_order"] >= 1


class TestAveragedNetwork:
    @staticmethod
    def random_base(rng, d, D, width=6):
        n_in = 2 * (4 * d + D)
        return DenseNetwork(
            n_in,
            ((rng.normal(0, 0.4, size=(width, n_in)), rng.normal(0, 0.4, size=width)),),
            rng.normal(0, 0.4, size=width),
            0.1,
            RELU,
        )

    def test_identity_like_record_structure(self, rng):
        """With zero masks, zero pads and the blocks in place, each block sees
        (x, 0, x, 0, 0 | y, 0, 0, y, 0)."""
        d, D = 2, 4
        base = self.random_base(rng, d, D)
        rec = RandomizationRecord(
            x_mask=np.zeros(d, dtype=np.int8),
            y_mask=np.zeros(d, dtype=np.int8),
            x_pad=np.zeros(D, dtype=np.int8),
            y_pad=np.zeros(D, dtype=np.int8),
            pos=np.arange(4 * d),
        )
        P, c = block_input_map(rec)
        from depthsep.networks import absorb_input_map

        block = absorb_input_map(base, P, c)
        x = np.array([1.0, 0.0])
        y = np.array([0.0, 1.0])
        expanded = np.concatenate(
            [x, np.zeros(d), x, np.zeros(d), np.zeros(D), y, np.zeros(d), np.zeros(d), y, np.zeros(D)]
        )
        assert abs(block.evaluate(np.concatenate([x, y])) - base.evaluate(expanded)) <= 1e-9

    @pytest.mark.parametrize("d", (1, 2, 3))
    def test_input_map_is_exact_on_every_input(self, d):
        """P (x, y) + c equals the expanded pair exactly for every input,
        under records whose masks and pads hold ones and whose placement
        moves every coordinate."""
        D = 5
        L = 4 * d + D
        records = [
            RandomizationRecord(
                x_mask=np.array([1, 0, 1][:d], dtype=np.int8),
                y_mask=np.array([1, 1, 0][:d], dtype=np.int8),
                x_pad=np.array([1, 1, 0, 1, 0], dtype=np.int8),
                y_pad=np.array([1, 1, 1, 0, 0], dtype=np.int8),
                pos=np.roll(np.arange(L - 1, 4, -1), 1),
            )
        ] + [draw_record(d, D, np.random.default_rng([seed, d])) for seed in range(3)]
        assert (records[0].perm != np.arange(L)).all()
        for rec in records:
            P, c = block_input_map(rec)
            for bits in itertools.product((0, 1), repeat=2 * d):
                xy = np.array(bits, dtype=np.int8)
                expanded = np.concatenate(expand_pair(xy[:d], xy[d:], rec))
                assert np.array_equal(P @ xy + c, expanded)

    def test_blocks_equal_direct_evaluation(self, rng):
        d, D, n_blocks = 2, 12, 8
        cfg = ReductionConfig(d=d, D=D, n_blocks=n_blocks)
        base = self.random_base(rng, d, D)
        averaged, records = build_averaged_network(base, cfg, seed=5)
        assert len(records) == n_blocks
        for _ in range(60):
            x = rng.integers(0, 2, d).astype(np.int8)
            y = rng.integers(0, 2, d).astype(np.int8)
            direct = np.mean(
                [
                    base.evaluate(np.concatenate(expand_pair(x, y, rec)).astype(float))
                    for rec in records
                ]
            )
            via = averaged.evaluate(np.concatenate([x, y]).astype(float))
            assert abs(direct - via) <= 1e-9

    def test_width_is_blocks_times_base(self, rng):
        cfg = ReductionConfig(d=1, D=6, n_blocks=5)
        base = self.random_base(rng, 1, 6, width=4)
        averaged, _ = build_averaged_network(base, cfg, seed=2)
        assert averaged.widths == (20,)
        assert averaged.depth == 2

    def test_dimension_mismatch(self, rng):
        cfg = ReductionConfig(d=1, D=6)
        base = self.random_base(rng, 1, 8)
        with pytest.raises(ValueError):
            build_averaged_network(base, cfg, seed=0)

    def test_deterministic(self, rng):
        cfg = ReductionConfig(d=1, D=6, n_blocks=3)
        base = self.random_base(rng, 1, 6)
        a, _ = build_averaged_network(base, cfg, seed=9)
        b, _ = build_averaged_network(base, cfg, seed=9)
        assert np.array_equal(a.hidden[0][0], b.hidden[0][0])


class TestHoeffding:
    def test_block_counts(self):
        assert hoeffding_block_count(1.0, 1) == 2500
        assert hoeffding_block_count(2.0, 1) == 10_000
        assert hoeffding_block_count(1.0, 4) == 10_000

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            hoeffding_block_count(0.0, 1)

    def test_output_bound_is_sound(self, rng):
        net = DenseNetwork(
            5,
            ((rng.normal(size=(7, 5)), rng.normal(size=7)),),
            rng.normal(size=7),
            0.3,
            RELU,
        )
        B = output_bound(net)
        X = rng.uniform(0, 1, size=(20_000, 5))
        assert np.abs(net.evaluate_batch(X)).max() <= B + 1e-9

    def test_config_defaults(self):
        cfg = ReductionConfig(d=3)
        assert cfg.D == 300
        assert cfg.bound_armed
        assert not ReductionConfig(d=3, D=200).bound_armed

    @pytest.mark.parametrize(
        "kwargs, name",
        [
            ({"d": 0}, "d"),
            ({"d": 1.0}, "d"),
            ({"d": True}, "d"),
            ({"d": 1, "D": 2.5}, "D"),
            ({"d": 1, "D": 0}, "D"),
            ({"d": 1, "D": False}, "D"),
            ({"d": 1, "n_blocks": 2.0}, "n_blocks"),
            ({"d": 1, "n_blocks": 0}, "n_blocks"),
            ({"d": 1, "n_blocks": True}, "n_blocks"),
        ],
    )
    def test_config_rejects_sizes(self, kwargs, name):
        with pytest.raises(ValueError, match=f"^{name} must be a positive integer"):
            ReductionConfig(**kwargs)

    def test_numpy_sizes_do_not_wrap(self):
        """numpy unsigned sizes are read as Python ints: 100 d at d = 3 is
        300, not 300 mod 256."""
        cfg = ReductionConfig(d=np.uint8(3), n_blocks=np.uint8(2))
        assert (cfg.d, cfg.D, cfg.n_blocks, cfg.expanded_dim) == (3, 300, 2, 312)
        assert all(type(v) is int for v in (cfg.d, cfg.D, cfg.n_blocks))
        assert verify_ip_preservation(np.uint8(40), d_values=(np.uint8(3),)) == 0
