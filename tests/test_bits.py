"""Bit kernel: worked examples plus algebraic properties."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from depthsep.bits import as_bits, ip_mod2, round_half_away, xor_bits


def bitvec(length):
    return st.lists(st.integers(0, 1), min_size=length, max_size=length)


class TestIpMod2:
    def test_worked_examples(self):
        assert ip_mod2([1], [1]) == 1
        assert ip_mod2([1, 1], [1, 1]) == 0
        assert ip_mod2([1, 0, 1], [1, 1, 1]) == 0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            ip_mod2([1, 0], [1])

    def test_integer_extension(self):
        # composition with rounding can leave {0,1}; parity must stay defined
        assert ip_mod2([3, -2], [1, 1]) == 1
        assert ip_mod2([2, 2], [5, 7]) == 0

    @given(st.integers(1, 8).flatmap(lambda n: st.tuples(bitvec(n), bitvec(n), bitvec(n))))
    def test_bilinearity(self, triple):
        a, b, c = triple
        lhs = ip_mod2(xor_bits(a, c), b)
        assert lhs == (ip_mod2(a, b) + ip_mod2(c, b)) % 2

    def test_bilinearity_exhaustive_small(self):
        for n in (1, 2, 3):
            for a, b, c in itertools.product(itertools.product((0, 1), repeat=n), repeat=3):
                assert ip_mod2(xor_bits(a, c), b) == (ip_mod2(a, b) + ip_mod2(c, b)) % 2


class TestXor:
    def test_worked_examples(self):
        assert xor_bits([0, 1], [1, 1]).tolist() == [1, 0]
        assert xor_bits([1], [1]).tolist() == [0]

    def test_identity_element(self):
        x = [1, 0, 1, 1]
        assert xor_bits(x, [0, 0, 0, 0]).tolist() == x

    @given(st.integers(1, 10).flatmap(lambda n: st.tuples(bitvec(n), bitvec(n))))
    def test_involution(self, pair):
        a, b = pair
        assert xor_bits(xor_bits(a, b), b).tolist() == list(a)

    def test_rejects_non_bits(self):
        with pytest.raises(ValueError):
            xor_bits([0, 2], [0, 0])


class TestFourTermIdentity:
    """ip(x,y) == ip(x+x',y+y') + ip(x',y') + ip(x+x',y') + ip(x',y+y') mod 2."""

    @staticmethod
    def check(x, y, xp, yp):
        xs = xor_bits(x, xp)
        ys = xor_bits(y, yp)
        rhs = (
            ip_mod2(xs, ys) + ip_mod2(xp, yp) + ip_mod2(xs, yp) + ip_mod2(xp, ys)
        ) % 2
        assert ip_mod2(x, y) == rhs

    def test_exhaustive_up_to_len2(self):
        for n in (1, 2):
            vecs = list(itertools.product((0, 1), repeat=n))
            for quad in itertools.product(vecs, repeat=4):
                self.check(*quad)

    def test_exhaustive_inputs_len_3_and_4(self):
        # all (x, y), masks swept coarsely to keep the quadruple sweep small
        for n in (3, 4):
            vecs = list(itertools.product((0, 1), repeat=n))
            masks = [vecs[0], vecs[-1], vecs[1], vecs[len(vecs) // 2]]
            for x, y in itertools.product(vecs, repeat=2):
                for xp, yp in itertools.product(masks, repeat=2):
                    self.check(x, y, xp, yp)

    @settings(max_examples=300)
    @given(st.integers(5, 16).flatmap(lambda n: st.tuples(*(bitvec(n),) * 4)))
    def test_randomized_larger(self, quad):
        self.check(*quad)


class TestRounding:
    def test_worked_examples(self):
        assert round_half_away([0.75, 0.05]).tolist() == [1, 0]
        assert round_half_away([0.5]).tolist() == [1]
        assert round_half_away([-0.3, 2.6]).tolist() == [0, 3]

    def test_ties_away_from_zero(self):
        assert round_half_away([-0.5, -1.5, 1.5, 2.5]).tolist() == [-1, -2, 2, 3]

    @given(st.lists(st.floats(-100, 100), min_size=1, max_size=20))
    def test_within_half(self, vals):
        out = round_half_away(vals)
        assert np.all(np.abs(out - np.asarray(vals)) <= 0.5 + 1e-12)


    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e300, 2.0**53, -(2.0**53)])
    def test_rejects_non_finite_and_huge(self, bad):
        with pytest.raises(ValueError, match="2\\^53"):
            round_half_away([0.25, bad])

    def test_exact_near_representation_limits(self):
        top = 2.0**53 - 1
        assert round_half_away([top, -top]).tolist() == [2**53 - 1, -(2**53 - 1)]
        below_half = np.nextafter(0.5, 0.0)
        assert round_half_away([below_half, -below_half]).tolist() == [0, 0]
        assert round_half_away([2.0**52 + 1, 2.0**52 - 0.5]).tolist() == [2**52 + 1, 2**52]


def test_as_bits_validation():
    assert as_bits((1, 0, 1)).dtype == np.int8
    with pytest.raises(ValueError):
        as_bits([0.5])
    with pytest.raises(ValueError):
        as_bits([[0, 1]])
    with pytest.raises(ValueError):
        as_bits([0, 1], length=3)
    for ok in ([True, False], np.array([0.0, 1.0]), np.array([1, 0], dtype=np.uint64), []):
        assert as_bits(ok).tolist() == [int(v) for v in ok]
    # 256 and 257 wrap to 0 and 1 in int8, so the values are checked first
    for bad in ([256], [257], [-1], [2.0], [float("nan")], ["1"], [None]):
        with pytest.raises(ValueError):
            as_bits(bad)
