"""Worst-to-average input randomization and its exact combinatorial laws.

The randomization maps a pair (x, y) of d-bit vectors to a pair (X, Y) of
(4d + D)-bit vectors with the same parity inner product:

* masks x', y' are drawn uniformly and the four-block arrangement
  (x+x', x', x+x', x') / (y+y', y', y', y+y') is formed (sums mod 2), so
  the four blockwise inner products telescope back to <x, y> mod 2;
* padding x'', y'' of length D is drawn uniformly conditioned on an even
  number of positions with both bits 1, contributing parity 0;
* the 4d block columns go to a uniformly random ordered choice of
  positions and the pads fill the others in the order they were drawn,
  identically in both vectors.  The pads are exchangeable, so this is the
  law of one uniform permutation of all 4d + D columns.

Because a uniform permutation spreads any fixed column multiset uniformly
over its arrangements, the law of (X, Y) is a function of the 4-part count
signature alone.  That makes the squared L2 norm of the law computable in
exact rational arithmetic, which this module does.  It also decides the two
combinatorial bounds the norm analysis rests on exactly: rational sides
against fixed-point integer bounds on exp (_exp_bounds), with no slack.
"""

from __future__ import annotations

import itertools
import math
import numbers
import time
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterator

import numpy as np

from .bits import _all_bits, _positive, _sizes, as_bits, ip_mod2
from .networks import DenseNetwork, _image, absorb_input_map, average_ensemble

__all__ = [
    "ReductionConfig",
    "RandomizationRecord",
    "EnumerationBudget",
    "CountDistribution",
    "draw_record",
    "expand_pair",
    "randomize_batch",
    "count_signature",
    "exact_count_distribution",
    "exact_l2_norm_squared",
    "l2_bound_report",
    "multinomial_square_ratio_report",
    "mgf_bound_report",
    "check_l2_size",
    "check_a1_size",
    "check_a2_size",
    "block_input_map",
    "build_averaged_network",
    "output_bound",
    "hoeffding_block_count",
    "verify_ip_preservation",
    "ip_preservation_certificate",
]

# The count law of an all-zero input at (d, D) = (7, 54) sums 1.8e6 terms in
# about 1.4 s on a 2-core VM; a one-signature input at d = 1 keeps as many
# pad weights as terms, about 0.4 KB each.
_MAX_LAW_TERMS = 2_000_000
_MAX_L2_D = 6  # l2_bound_report(6, 600) sweeps 84 type classes in about 12 s on a 2-core VM
_MAX_L2_LENGTH = 200_000
_MAX_A2_D = 16  # mgf_bound_report at d = 16 sweeps 969 type classes in about 0.85 s on a 2-core VM
_MAX_A1_D = 64  # multinomial_square_ratio_report(64, 6400) takes about 0.8 s on a 2-core VM
_MAX_A1_LENGTH = 200_000  # (64, 199936) takes about 0.9 s
_EXP_BITS = 256  # fractional bits of _exp_bounds: the bound reports' floats are within 2^-250
_IP_CHUNK = 20_000  # trials per randomize_batch call in verify_ip_preservation
_CERT_MAX_D = 4  # pad lengths enumerated by ip_preservation_certificate (4^D pad pairs each)
_CERT_MAX_L = 8  # placement lengths it enumerates (8!/4! = 1680 block injections)


class EnumerationBudget(RuntimeError):
    """Requested exact enumeration is too large for desk-scale arithmetic."""


@dataclass(frozen=True)
class ReductionConfig:
    """Randomization parameters; padding length defaults to 100 d.

    The L2-norm bound assertion is only armed for D >= 100 d, the regime
    the analysis covers; smaller D still randomizes correctly.
    """

    d: int
    D: int | None = None
    n_blocks: int = 1

    def __post_init__(self):
        (d,) = _sizes(d=self.d)
        D, n_blocks = _sizes(D=100 * d if self.D is None else self.D, n_blocks=self.n_blocks)
        for name, value in (("d", d), ("D", D), ("n_blocks", n_blocks)):
            object.__setattr__(self, name, value)

    @property
    def expanded_dim(self) -> int:
        return 4 * self.d + self.D

    @property
    def bound_armed(self) -> bool:
        return self.D >= 100 * self.d


@dataclass(frozen=True, eq=False)
class RandomizationRecord:
    """One draw of the randomization: masks, even-conditioned pads, and the
    positions of the 4d block columns in the expanded pair (the pads fill
    the other positions in order)."""

    x_mask: np.ndarray
    y_mask: np.ndarray
    x_pad: np.ndarray
    y_pad: np.ndarray
    pos: np.ndarray

    def __post_init__(self):
        for arr in (self.x_mask, self.y_mask, self.x_pad, self.y_pad, self.pos):
            arr.setflags(write=False)
        for a, b in (("x_mask", "y_mask"), ("x_pad", "y_pad")):
            if getattr(self, a).shape != getattr(self, b).shape:
                raise ValueError(f"{a} and {b} must have the same length, got shapes "
                                 f"{getattr(self, a).shape} and {getattr(self, b).shape}")
        pos, k = self.pos, 4 * self.x_mask.size
        L = k + self.x_pad.size
        if (pos.dtype.kind not in "iu" or pos.shape != (k,)
                or not ((0 <= pos) & (pos < L)).all() or np.unique(pos).size != k):
            raise ValueError(f"pos must be 4d = {k} distinct positions in range(4d + D) = range({L})")
        bits = np.concatenate((self.x_mask, self.y_mask, self.x_pad, self.y_pad))
        if not _all_bits(bits):  # a 2 would leak into Y through the packed placement
            raise ValueError("masks and pads must hold only 0 and 1")
        if ip_mod2(self.x_pad, self.y_pad):
            raise ValueError("padding must have an even number of (1,1) positions")

    @property
    def perm(self) -> np.ndarray:
        """The same placement as a permutation of range(4d + D): position
        pos[k] takes block column k, and the free positions, in increasing
        order, take the pad columns 4d .. L-1.  Derived on each read; the
        package itself places by pos."""
        k, L = self.pos.size, self.pos.size + self.x_pad.size
        perm = np.empty(L, dtype=np.int64)
        free = np.ones(L, dtype=bool)
        free[self.pos] = False
        perm[self.pos] = np.arange(k)
        perm[free] = np.arange(k, L)
        return perm


# Block order of the arrangement, one row per side (X, then Y): True where a
# block holds the input bits xor the mask, False where it holds the mask.
_BLOCK_ORDER = ((True, False, True, False), (True, False, False, True))


def _odd_rows(x_pad: np.ndarray, y_pad: np.ndarray) -> np.ndarray:
    """Indices of the pad rows the sampler redraws: those with an odd number
    of positions with both bits 1."""
    return np.flatnonzero(ip_mod2(x_pad, y_pad))


def _block_positions(n: int, k: int, L: int, rng: np.random.Generator) -> np.ndarray:
    """n rows of k distinct positions in range(L), L > k, each row a uniformly
    random ordered choice.

    Entry j of a row is the first of its own uniform proposals that misses
    entries 0..j-1, so given them it is uniform over the L - j free
    positions.  Every entry makes one proposal up front; rows whose first
    proposals are distinct are final, and the others are settled entry by
    entry, each round redrawing only the rows that still collide (an entry
    before a row's first repeat draws nothing).
    """
    pos = rng.integers(0, L, size=(n, k))
    ordered = np.sort(pos, axis=1)
    rows = np.flatnonzero((ordered[:, 1:] == ordered[:, :-1]).any(axis=1))
    if not rows.size:
        return pos
    sub = pos[rows]
    for j in range(1, k):
        hit = np.flatnonzero((sub[:, :j] == sub[:, j, None]).any(axis=1))
        while hit.size:
            new = rng.integers(0, L, size=hit.size)
            sub[hit, j] = new
            hit = hit[(sub[hit, :j] == new[:, None]).any(axis=1)]
    pos[rows] = sub
    return pos


def _bits(rng: np.random.Generator, n: int, m: int) -> np.ndarray:
    """n rows of m i.i.d. uniform bits (int8), drawn packed: one uniform byte
    per eight bits of a row, decoded most significant bit first, and the
    unused tail bits of each row's last byte dropped."""
    packed = rng.integers(0, 256, size=(n, -(-m // 8)), dtype=np.uint8)
    return np.unpackbits(packed, axis=1, count=m).view(np.int8)


def _sample(n: int, d: int, D: int, rng: np.random.Generator):
    """n draws of (x_mask, y_mask, x_pad, y_pad, pos), one row per draw.

    Each round is one _bits draw: first one row of 2d + 2D bits per draw,
    split in the order x_mask, y_mask, x_pad, y_pad; then, while some rows
    have pads with an odd number of positions with both bits 1, one row of
    2D bits (x_pad, y_pad) for each of them (acceptance >= 1/2 per row).
    Each round tests only the rows it just drew.  pos places the 4d block
    columns in the expanded pair (_block_positions); the pads fill the other
    D positions in the order they were drawn.  The pads need no shuffle:
    they are i.i.d. uniform conditioned on an event no reordering of them
    changes, so they are exchangeable, and the placement has the law of one
    uniform permutation of all 4d + D columns.
    """
    d, D = _sizes(d=d, D=D)
    first = _bits(rng, n, 2 * d + 2 * D)
    x_mask, y_mask, pads = first[:, :d], first[:, d:2 * d], first[:, 2 * d:]
    odd = _odd_rows(pads[:, :D], pads[:, D:])
    while odd.size:
        new = _bits(rng, odd.size, 2 * D)
        pads[odd] = new
        odd = odd[_odd_rows(new[:, :D], new[:, D:])]
    return x_mask, y_mask, pads[:, :D], pads[:, D:], _block_positions(n, 4 * d, 4 * d + D, rng)


def draw_record(d: int, D: int, rng: np.random.Generator) -> RandomizationRecord:
    """Sample one randomization: the one-row case of the batched sampler,
    drawing the same random stream."""
    return RandomizationRecord(*(a[0] for a in _sample(1, d, D, rng)))


def _arrange(side: int, bits: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """The four blocks of one side along the last axis, one row per input
    row; ``mask`` is one row for all inputs or one row per input."""
    masked = bits ^ mask
    mask = masked ^ bits  # the mask with one row per input
    return np.concatenate([masked if m else mask for m in _BLOCK_ORDER[side]], axis=-1)


def _place(x, y, x_mask, y_mask, x_pad, y_pad, pos) -> tuple[np.ndarray, np.ndarray]:
    """Expand the input rows (x, y) under a record's masks, pads and block
    positions, given as one row for all inputs or as one row per input.

    Both sides are written into one int8 buffer X + 2 Y, so that a
    position moves them alike: block column k at pos[..., k], the pads in
    order at the other positions in increasing order.  Indexes only the 4d
    block positions of each row."""
    n = len(x)
    both = np.empty((n, pos.shape[-1] + x_pad.shape[-1]), dtype=np.int8)
    rows = np.arange(n)[:, None]
    free = np.ones(both.shape, dtype=bool)
    free[rows, pos] = False
    pads = y_pad << 1
    pads |= x_pad
    both[free] = np.broadcast_to(pads, (n, x_pad.shape[-1])).reshape(-1)
    both[rows, pos] = _arrange(0, x, x_mask) | _arrange(1, y, y_mask) << 1
    Y = both >> 1
    both &= 1
    return both, Y


def expand_pair(
    x: np.ndarray, y: np.ndarray, record: RandomizationRecord
) -> tuple[np.ndarray, np.ndarray]:
    """Apply a fixed randomization record to (x, y): the one-row placement."""
    x = as_bits(x, length=record.x_mask.size)
    y = as_bits(y, length=record.x_mask.size)
    X, Y = _place(x[None], y[None], record.x_mask, record.y_mask, record.x_pad, record.y_pad, record.pos)
    return X[0], Y[0]


def _bit_rows(name: str, a) -> np.ndarray:
    """``a`` as a 2-d int8 array of 0/1 entries; ValueError naming ``name`` otherwise."""
    arr = np.asarray(a)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be 2-d (one pair per row), got shape {arr.shape}")
    if not _all_bits(arr):
        raise ValueError(f"{name} entries must be exactly 0 or 1")
    return arr.astype(np.int8, copy=False)


def randomize_batch(
    xs: np.ndarray, ys: np.ndarray, D: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized randomization of n input pairs (rows of xs, ys).

    Each row has the law of expand_pair under a fresh :func:`draw_record`;
    used for large-trial invariance sweeps.  With one row it draws the
    stream of draw_record and returns expand_pair of that record.
    """
    xs, ys = _bit_rows("xs", xs), _bit_rows("ys", ys)
    if xs.shape != ys.shape:
        raise ValueError(f"xs and ys must have the same shape, got {xs.shape} and {ys.shape}")
    n, d = xs.shape
    return _place(xs, ys, *_sample(n, d, D, rng))


def count_signature(X, Y) -> tuple[int, int, int, int]:
    """(n1, n2, n3, n4) = counts of positions with (X,Y) = (0,0), (0,1),
    (1,0), (1,1); the four entries always sum to the length."""
    Xa = as_bits(X)
    Ya = as_bits(Y, length=Xa.size)
    code = 2 * Xa.astype(np.int64) + Ya
    counts = np.bincount(code, minlength=4)
    return tuple(int(c) for c in counts)


# ---------------------------------------------------------------------------
# exact laws
# ---------------------------------------------------------------------------


def _multinom(n: int, parts) -> int:
    r, rem = 1, n
    for p in parts[:-1]:
        r *= math.comb(rem, p)
        rem -= p
    return r


def _compositions4(total: int) -> Iterator[tuple[int, int, int, int]]:
    for a in range(total + 1):
        for b in range(total - a + 1):
            for c in range(total - a - b + 1):
                yield (a, b, c, total - a - b - c)


def _mask_law(n00: int, n01: int, n10: int, n11: int) -> dict[tuple[int, int, int, int], int]:
    """Multiplicity of each arrangement count signature over the 4^d mask
    pairs of an input with n_ab coordinates of type (x_i, y_i) = (a, b).

    Over its four mask pairs a coordinate of type (0,0) gives 4 e_j for each
    count cell j, (0,1) gives (2,2,0,0) or (0,0,2,2) twice each, (1,0) gives
    (2,0,2,0) or (0,2,0,2) twice each and (1,1) gives (1,1,1,1) four times.
    Their convolution over the coordinates is a multinomial over the (0,0)
    coordinates times one binomial each over the (0,1) and the (1,0) ones,
    shifted by n11 (1,1,1,1).
    """
    law: dict[tuple[int, int, int, int], int] = {}
    for a, b, c, e in _compositions4(n00):
        m = _multinom(n00, (a, b, c, e)) * 2 ** (n01 + n10) * 4**n11
        for j, k in itertools.product(range(n01 + 1), range(n10 + 1)):
            p, q = 2 * (n01 - j), 2 * (n10 - k)
            sig = (n11 + 4 * a + 2 * (j + k), n11 + 4 * b + 2 * j + q, n11 + 4 * c + p + 2 * k,
                   n11 + 4 * e + p + q)
            law[sig] = law.get(sig, 0) + m * math.comb(n01, j) * math.comb(n10, k)
    return law


def _type_classes(d: int) -> Iterator[tuple[tuple[int, int, int, int], list[list[int]]]]:
    """Each type class (n00, n01, n10, n11) of d-bit inputs with its first
    input in the order of (x, y) as integers, x major, bits least significant
    first: x = 1 on the first n10 + n11 coordinates, y = 1 on the first n11
    and the next n01.  Sorting by (n10 + n11, n01, n11) lists the classes in
    the order of those inputs."""
    for n00, n01, n10, n11 in sorted(_compositions4(d), key=lambda t: (t[2] + t[3], t[1], t[3])):
        x = [1] * (n10 + n11) + [0] * (n00 + n01)
        yield (n00, n01, n10, n11), [x, [1] * n11 + [0] * n10 + [1] * n01 + [0] * n00]


@lru_cache(maxsize=4)
def _even_pad_weights(D: int) -> dict[tuple[int, int, int, int], int]:
    """Multinomial weights of pad signatures with an even both-ones count.

    The weights sum to (4^D + 2^D) / 2: the even/odd counts differ by
    exactly (1+1+1-1)^D = 2^D, so the even side holds (4^D + 2^D)/2 of the
    4^D equally likely pads.
    """
    weights = {}
    for a in range(D + 1):
        ca = math.comb(D, a)
        for b in range(D - a + 1):
            cab, rest = ca * math.comb(D - a, b), D - a - b
            for c in range(rest % 2, rest + 1, 2):  # rest - c, the (1,1) count, is even
                weights[(a, b, c, rest - c)] = cab * math.comb(rest, c)
    assert sum(weights.values()) == (4**D + 2**D) // 2
    return weights


@dataclass(frozen=True)
class CountDistribution:
    """Exact rational law over total count signatures (n1, n2, n3, n4).

    Stored as integer numerators over one common denominator, so sums over
    the law stay exact.
    """

    numerators: dict[tuple[int, int, int, int], int]
    denominator: int
    total_length: int

    def prob(self, sig: tuple[int, int, int, int]) -> Fraction:
        return Fraction(self.numerators.get(sig, 0), self.denominator)


def _check_l2_length(d: int, D: int) -> tuple[int, int]:
    """(d, D) as ints; reject a norm with integers of over about 2 _MAX_L2_LENGTH bits."""
    d, D = _sizes(d=d, D=D)
    if 4 * d + D > _MAX_L2_LENGTH:
        raise EnumerationBudget(f"exact L2 norm needs 4d + D <= {_MAX_L2_LENGTH}, got {4 * d + D}")
    return d, D


def check_l2_size(d: int, D: int) -> tuple[int, int]:
    """(d, D) as ints; reject an L2 sweep beyond d = _MAX_L2_D, past which the
    sweep over type classes outgrows seconds, or past the integer-length cap."""
    d, D = _check_l2_length(d, D)
    if d > _MAX_L2_D:
        raise EnumerationBudget(f"the L2 sweep takes about 12 s at d = 6, D = 600; d <= {_MAX_L2_D}")
    return d, D


def exact_count_distribution(x, y, D: int) -> CountDistribution:
    """Exact law of the randomized pair's count signature.

    Convolution of (i) the uniform law over the 4^d mask arrangements of
    the fixed (x, y), which depends only on its coordinate types
    (_mask_law), and (ii) the even-conditioned multinomial pad law at
    parameter 1/4, whose normalizer is exactly 1/2 + 2^{-D-1}.  Takes the
    sampler's sizes, d >= 1 and D >= 1.
    """
    types = count_signature(x, y)
    d, D = _sizes(d=sum(types), D=D)
    law = _mask_law(*types)
    n_pads = sum(math.comb(D - e + 2, 2) for e in range(0, D + 1, 2))  # per even (1,1) count e
    if len(law) * n_pads > _MAX_LAW_TERMS:
        raise EnumerationBudget(
            f"exact law would sum {len(law)} mask signatures x {n_pads} pads = "
            f"{len(law) * n_pads:.2e} terms; at most {_MAX_LAW_TERMS:.0e}"
        )
    pad_weights = _even_pad_weights(D)
    numerators: dict[tuple[int, int, int, int], int] = {}
    for sig, mult in law.items():
        for psig, w in pad_weights.items():
            key = (sig[0] + psig[0], sig[1] + psig[1], sig[2] + psig[2], sig[3] + psig[3])
            numerators[key] = numerators.get(key, 0) + mult * w
    denom = 4**d * (4**D + 2**D) // 2
    return CountDistribution(numerators=numerators, denominator=denom, total_length=4 * d + D)


def _pair_poly(a: int, b: int) -> list[int]:
    """Coefficients, by degree, of sum_k C(a,k) C(b,k) k! t^(a+b-k): the
    polynomial p with sum_n ff(n,a) ff(n,b) t^n / n! = p(t) e^t, where
    ff(n,k) = n!/(n-k)! is the falling factorial (ff(n,a) ff(n,b) expands
    as sum_k C(a,k) C(b,k) k! ff(n, a+b-k))."""
    p = [0] * (a + b + 1)
    for k in range(min(a, b) + 1):
        p[a + b - k] = math.comb(a, k) * math.comb(b, k) * math.factorial(k)
    return p


def _poly_mul(p: list[int], q: list[int]) -> list[int]:
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def _l2_closed_form(types: tuple[int, int, int, int], D: int) -> tuple[Fraction, int]:
    """Exact squared L2 norm of the pair law of an input with coordinate
    type counts ``types``, and the number of shift pairs summed; the cost
    does not depend on D beyond the size of its integers.

    With N = 4d + D, the mask signatures s of multiplicity m_s and the
    falling factorial ff, the count law's numerator is
    num(sig) = (D! / prod sig_i!) Q(sig) with
    Q(sig) = sum_s m_s [sig_4 = s_4 mod 2] prod_i ff(sig_i, s_i), so

        ||P||^2 = (D!)^2 / (N! denom^2) * sum_sig Q(sig)^2 / prod_i sig_i!.

    Expanding Q^2 over shift pairs (s, s') with s_4 = s'_4 (mod 2), the sum
    over sig of prod_i ff(sig_i, s_i) ff(sig_i, s'_i) / sig_i! is the
    t^N coefficient of g_1 g_2 g_3 e^{3t} g_4 (e^t +- e^{-t}) / 2, where
    g_i = _pair_poly(s_i, s'_i) and the parity condition on sig_4 gives a
    monomial t^j of g_4 the sign (-1)^(s_4 - j).  A monomial c t^p
    therefore adds c perm(N, p) (4^(N-p) +- 2^(N-p)) / (2 N!), and with
    N!/D! = perm(N, 4d) the norm is one integer sum over shift pairs and
    degrees p <= 8d divided by 2 perm(N, 4d)^2 denom^2.
    """
    d = sum(types)
    N = 4 * d + D
    shifts = sorted(_mask_law(*types).items())
    plain = [0] * (8 * d + 1)  # coefficients against e^{4t}
    signed = [0] * (8 * d + 1)  # coefficients against e^{2t}, sign included
    n_pairs = 0
    for i, (s, m) in enumerate(shifts):
        for t, mt in shifts[i:]:
            if (s[3] - t[3]) % 2:
                continue
            n_pairs += 1
            w = m * mt * (1 if t == s else 2)
            g = _poly_mul(_poly_mul(_pair_poly(s[0], t[0]), _pair_poly(s[1], t[1])),
                          _pair_poly(s[2], t[2]))
            g4 = _pair_poly(s[3], t[3])
            g4_signed = [-c if (s[3] - j) % 2 else c for j, c in enumerate(g4)]
            for p, c in enumerate(_poly_mul(g, g4)):
                plain[p] += w * c
            for p, c in enumerate(_poly_mul(g, g4_signed)):
                signed[p] += w * c
    total = sum(
        math.perm(N, p) * (plain[p] * 4 ** (N - p) + signed[p] * 2 ** (N - p))
        for p in range(min(N, 8 * d) + 1)
    )
    denom = 4**d * (4**D + 2**D) // 2
    return Fraction(total, 2 * math.perm(N, 4 * d) ** 2 * denom**2), n_pairs


def exact_l2_norm_squared(x, y, D: int) -> Fraction:
    """Exact squared L2 norm of the randomized pair's law on bit-vector pairs.

    Conditioned on a total count signature, the permuted pair is uniform
    over the multinomial(4d+D; n1..n4) arrangements, so the squared norm is
    sum_sig P[sig]^2 / multinomial(4d+D; sig).  For D >= 100 d this is at
    most 64 * 4^{-(4d+D)}, eight times the uniform law's norm, squared.
    The sum is taken in closed form over pairs of mask signatures (see
    _l2_closed_form), with no count law built.
    """
    types = count_signature(x, y)
    _, D = _check_l2_length(sum(types), D)
    return _l2_closed_form(types, D)[0]


def _class_sweep(d: int, ratio_of) -> dict:
    """The shared fields of a check on every d-bit input, run one type class
    at a time: ratio_of(types) gives (ratio, holds), the first largest ratio
    gives worst_input, and failures counts the inputs of failing classes."""
    start = time.perf_counter()
    classes = [(*ratio_of(types), types, first) for types, first in _type_classes(d)]
    worst, _, _, worst_input = max(classes, key=lambda c: c[0])
    failures = sum(_multinom(d, types) for _, holds, types, _ in classes if not holds)
    return {"n_inputs": 4**d, "n_classes": len(classes), "max_ratio": float(worst),
            "worst_input": worst_input, "failures": failures, "elapsed_s": time.perf_counter() - start}


def l2_bound_report(d: int, D: int) -> dict:
    """Check exact_l2_norm_squared(x, y, D) <= 64 * 4^{-(4d+D)} over all 4^d inputs,
    one type class at a time (worst_input is the first input of the first worst
    class); the bound is armed only for D >= 100 d, below it the worst ratio is reported."""
    d, D = check_l2_size(d, D)
    bound = Fraction(64, 4 ** (4 * d + D))
    n_pairs = 0

    def ratio_of(types):
        nonlocal n_pairs
        value, pairs = _l2_closed_form(types, D)
        n_pairs += pairs
        return value / bound, value <= bound

    sweep = _class_sweep(d, ratio_of)
    armed = ReductionConfig(d, D).bound_armed
    ok = sweep.pop("failures") == 0 or not armed
    return {
        "check": "pair-law-l2-norm",
        "parameters": {"d": d, "D": D},
        **sweep,
        "n_shift_pairs": n_pairs,
        "bound_armed": armed,
        "pass": ok,
    }


# ---------------------------------------------------------------------------
# bound verifiers: exact decisions against fixed-point bounds on exp
# ---------------------------------------------------------------------------


def _exp_bounds(p: int, q: int) -> tuple[int, int, int]:
    """Integers lo <= e^(p/q) 2^_EXP_BITS <= hi for integers p >= 0, q >= 1,
    and the Taylor order K; hi / lo - 1 < (2 + (4K + 8) 2^-8) 2^-_EXP_BITS.

    For a = p / (q 2^j) <= 1, T_K(a) <= e^a <= T_K(a) + 3^ceil(a) a^(K+1) / (K+1)!.
    Both are summed with w = _EXP_BITS + j + 8 fractional bits, lo rounded
    down and hi up, each term off by under two units, until a term is at
    most one unit; j squarings, each doubling the relative width, give
    e^(p/q), and the last rounding to _EXP_BITS bits adds a unit to each side."""
    j = (p // q).bit_length()
    w, den = _EXP_BITS + j + 8, q << j
    lo = hi = lo_term = hi_term = 1 << w
    K = 0
    while hi_term > 1:
        K += 1
        lo_term, hi_term = lo_term * p // (K * den), -(-hi_term * p // (K * den))
        lo, hi = lo + lo_term, hi + hi_term
    hi += 3 * hi_term  # the remainder, at most 3 a^(K+1) / (K+1)! <= 3 a^K / K!
    for _ in range(j):
        lo, hi = lo * lo >> w, -(-hi * hi >> w)
    return lo >> (w - _EXP_BITS), -(-hi >> (w - _EXP_BITS)), K


def _a1_lhs(split: tuple[int, int, int, int], D: int) -> int:
    """The LHS of the ratio bound for one split s of d, in closed form, as the
    integer A = sum_{p <= min(d, D)} perm(D, p) 4^(d-p) c_p with LHS = 4^(D-d) A / perm(D + d, d),
    where sum_p c_p t^p = prod_i sum_j C(s_i, j) (s_i! / j!) t^j.  The LHS is
    (D!)^2 / (D+d)! times the t^D coefficient of prod_i F_i(t) = e^{4t} sum_p c_p t^p,
    as C(k+s, s) = sum_j C(s, j) C(k, j) gives
    F_i(t) = sum_k (k + s_i)! t^k / (k!)^2 = e^t sum_j C(s_i, j) (s_i! / j!) t^j."""
    c = [1]
    for s in split:
        c = _poly_mul(c, [math.comb(s, j) * math.perm(s, s - j) for j in range(s + 1)])
    d = sum(split)
    return sum(math.perm(D, p) * 4 ** (d - p) * c[p] for p in range(min(d, D) + 1))


def check_a1_size(d: int, D: int) -> tuple[int, int]:
    """(d, D) as ints; the ratio bound is stated for d and D divisible by 4.
    Reject a sweep beyond d = _MAX_A1_D, past which the splits outgrow
    seconds, or with D + d beyond _MAX_A1_LENGTH."""
    d, D = _sizes(d=d, D=D)
    if d % 4 != 0 or D % 4 != 0:
        raise ValueError(f"d and D must both be divisible by 4, got {d} and {D}")
    if d > _MAX_A1_D:
        raise EnumerationBudget(f"the ratio-bound sweep takes about 0.8 s at d = 64, D = 6400; "
                                f"d <= {_MAX_A1_D}")
    if D + d > _MAX_A1_LENGTH:
        raise EnumerationBudget(f"the ratio-bound sweep takes about 0.9 s at d = 64, D = 199936; "
                                f"D + d <= {_MAX_A1_LENGTH}, got {D + d}")
    return d, D


def multinomial_square_ratio_report(d: int, D: int) -> dict:
    """Check, for every 4-part split of d, that the exact sum

        sum over compositions (D1..D4) of D of
            multinomial(D; D1..D4)^2 / multinomial(D+d; D1+d1..D4+d4)

    stays below exp((4/D) sum (d_i - d/4)^2) (1 + d/D)^{3/2} 4^{D-d}.

    Both parameters must be divisible by 4 (the regime the bound is stated
    for).  Squared, the check is u^2 (D / (D + d))^3 <= e^(8 spread / D) with
    u = LHS / 4^(D-d) = _a1_lhs / perm(D + d, d): a split passes only if the
    lower bound of _exp_bounds proves it, and its ratio is the float of an
    upper bound within 2^-250.  Both sides are symmetric in the split, so
    each sorted split is evaluated once; n_terms counts the terms summed.
    """
    d, D = check_a1_size(d, D)
    start = time.perf_counter()
    m = math.perm(D + d, d) ** 2 * (D + d) ** 3
    exps: dict[int, tuple[int, int, int]] = {}  # 8 spread -> _exp_bounds(8 spread, D)

    def ratio_of(key):
        p = 8 * sum((di - d // 4) ** 2 for di in key)
        if p not in exps:
            exps[p] = _exp_bounds(p, D)
        n, den = _a1_lhs(key, D) ** 2 * D**3 << _EXP_BITS, m * exps[p][0]  # ratio^2 <= n / den
        k = max(0, _EXP_BITS - (n.bit_length() - den.bit_length()) // 2)  # the root gets _EXP_BITS bits
        return (math.isqrt((n << 2 * k) // den) + 1) / (1 << k), n <= den

    splits = [(split, tuple(sorted(split))) for split in _compositions4(d)]
    ratios = {key: ratio_of(key) for key in {key for _, key in splits}}
    worst_split, worst_key = max(splits, key=lambda s: ratios[s[1]][0])  # the first largest
    return {
        "check": "multinomial-square-ratio",
        "parameters": {"d": d, "D": D},
        "n_splits": len(splits),
        "n_terms": len(ratios) * (min(d, D) + 1),
        "n_exp_bounds": len(exps),
        "max_taylor_order": max(k for *_, k in exps.values()),
        "max_ratio": ratios[worst_key][0],
        "worst_split": list(worst_split),
        "pass": all(holds for _, holds in ratios.values()),
        "failures": [{"split": list(s), "ratio": ratios[k][0]} for s, k in splits if not ratios[k][1]],
        "elapsed_s": time.perf_counter() - start,
    }


def check_a2_size(d: int, s) -> tuple[int, Fraction]:
    """(d, s) as an int and an exact Fraction (a rational as it is, any other
    real as its float); reject an MGF sweep outside 0 < s < 1/(24 d) or
    beyond d = _MAX_A2_D."""
    (d,) = _sizes(d=d)
    _positive(s=s)
    s = Fraction(s) if isinstance(s, numbers.Rational) else Fraction(float(s))
    if not s < Fraction(1, 24 * d):
        raise ValueError(f"need 0 < s < 1/(24 d) = 1/{24 * d}, got s = {s}")
    if d > _MAX_A2_D:
        raise EnumerationBudget(f"MGF sweep over type classes requires d <= {_MAX_A2_D}")
    return d, s


def mgf_bound_report(d: int, s) -> dict:
    """Check E over mask pairs of exp(s * sum_i (c_i - d)^2) <= (1/(1-24ds))^2
    for every (x, y).

    The counts c_i are the arrangement signature of a fixed (x, y), whose law
    depends only on its type class (_mask_law); the expectation runs exactly
    over that law, once per class, against the upper bound of _exp_bounds
    for each deviation: a class passes only if that bound proves it, and its
    ratio is the bound's float, within 2^-250.
    """
    d, s = check_a2_size(d, s)
    p, q = s.numerator, s.denominator
    scale, den = (q - 24 * d * p) ** 2, q * q * 4**d << _EXP_BITS  # ratio = scale sum mult e^(s dev) / den
    exps: dict[int, tuple[int, int, int]] = {}  # dev -> _exp_bounds(p dev, q)

    def ratio_of(types):
        mults: Counter[int] = Counter()  # mask pairs per deviation dev = sum_i (c_i - d)^2
        for sig, mult in _mask_law(*types).items():
            mults[sum((c - d) ** 2 for c in sig)] += mult
        exps.update((dev, _exp_bounds(p * dev, q)) for dev in mults.keys() - exps.keys())
        num = scale * sum(mult * exps[dev][1] for dev, mult in mults.items())
        return num / den, num <= den

    sweep = _class_sweep(d, ratio_of)
    return {
        "check": "mask-signature-mgf",
        "parameters": {"d": d, "s": [p, q]},
        **sweep,
        "n_exp_bounds": len(exps),
        "max_taylor_order": max(k for *_, k in exps.values()),
        "worst_input": tuple(sweep["worst_input"]),
        "pass": sweep["failures"] == 0,
    }


# ---------------------------------------------------------------------------
# network-level randomization
# ---------------------------------------------------------------------------


def block_input_map(record: RandomizationRecord) -> tuple[np.ndarray, np.ndarray]:
    """Affine map (P, c) with P (x, y) + c = (X, Y) for real-valued inputs.

    Mask bit 0 keeps a coordinate (row +e_k), mask bit 1 flips it
    (row -e_k, offset 1); mask and pad positions become constant rows.
    Every expanded coordinate reads at most one input bit, so the map is
    exact read off the arrangement itself: c is the expansion of the zero
    input and column k of P the change at the unit vector e_k.  Feeding the
    result to absorb_input_map re-wires a network on the expanded pair into
    one reading the original (x, y).
    """
    d = record.x_mask.size
    n = 2 * d + 1
    units = np.eye(n, 2 * d, k=-1, dtype=np.int8)  # the zero input, then each unit vector
    X, Y = _place(units[:, :d], units[:, d:], record.x_mask, record.y_mask, record.x_pad, record.y_pad,
                  record.pos)
    at = np.concatenate([X, Y], axis=1).T.astype(np.float64, order="C")
    return at[:, 1:] - at[:, :1], at[:, 0]


def build_averaged_network(
    base: DenseNetwork, cfg: ReductionConfig, seed: int
) -> tuple[DenseNetwork, list[RandomizationRecord]]:
    """Average n_blocks re-randomized copies of a depth-2 base network.

    Each block absorbs one randomization record's affine input map into the
    base's first hidden layer (width and depth unchanged); the blocks are
    then concatenated with output coefficients 1/n.  The result reads
    (x, y) of length 2d and equals the mean of the base evaluated on the
    blocks' expanded pairs.
    """
    if base.depth != 2:
        raise ValueError("base network must be depth 2")
    if base.input_dim != 2 * cfg.expanded_dim:
        raise ValueError(
            f"base input dim {base.input_dim} != 2 (4d + D) = {2 * cfg.expanded_dim}"
        )
    records = []
    blocks = []
    for j in range(cfg.n_blocks):
        rng = np.random.default_rng([seed, j])
        record = draw_record(cfg.d, cfg.D, rng)
        records.append(record)
        P, c = block_input_map(record)
        blocks.append(absorb_input_map(base, P, c))
    averaged = average_ensemble(blocks, [1.0 / cfg.n_blocks] * cfg.n_blocks)
    return averaged, records


def output_bound(net: DenseNetwork) -> float:
    """Interval-arithmetic bound on |net| over the input box [0, 1]^n.

    Requires a monotone activation so activation images of intervals are
    intervals; tighter than the generic poly(d, C) * width envelope while
    remaining sound.
    """
    if not net.activation.monotone:
        raise ValueError("interval propagation needs a monotone activation")

    lo, hi = np.zeros(net.input_dim), np.ones(net.input_dim)
    for W, b in net.hidden:
        lo, hi = (np.asarray(net.activation(v), dtype=np.float64) for v in _image(W, b, lo, hi))
    return float(max(map(abs, _image(net.out_w, net.out_b, lo, hi))))


def hoeffding_block_count(B: float, d: int) -> int:
    """Number of averaged blocks, ceil(2500 B^2 d), that drives the
    per-input Hoeffding deviation below 0.04 with margin for a union bound
    over all 2^{2d} inputs."""
    (B,), (d,) = _positive(B=B), _sizes(d=d)
    return math.ceil(2500.0 * B * B * d)


def ip_preservation_certificate() -> dict:
    """Certify, by running _place on finitely many cases, that the
    randomization keeps <x, y> mod 2 for every d and D.

    The arrangement is coordinatewise: input coordinate i contributes the
    column pairs its own (x_i, y_i, x_mask_i, y_mask_i) gives, so all 16
    such cases cover every input and mask.  The pads add their own columns,
    and the one placement (_place) moves both sides alike.  So it suffices
    that

    * for every pad pair with D <= _CERT_MAX_D (D = 0 is the bare
      arrangement) and each of the 16 cases, the expansion with the blocks
      in place (positions 0..3) keeps the parity exactly when the sampler
      keeps the pads (_odd_rows), so the sampler keeps only, and all, the
      pads that add parity 0;
    * for every ordered injection of d = 1's four block columns into
      L <= _CERT_MAX_L positions (zero pads) and each of the 16 cases, the
      placement keeps the parity.

    The coordinatewise structure itself is checked on the 256 pair cases
    (x, y, x_mask, y_mask) in {0,1}^8 at d = 2, blocks in place and no pads:
    a column that mixes the two coordinates breaks the parity in some case.
    Parities are recomputed here as integer sums; failures lists up to
    three failing (case, pads) or (case, positions) per length, and three
    failing pair cases.
    """
    start = time.perf_counter()
    # the 16 coordinate cases (x_i, y_i, x_mask_i, y_mask_i)
    cases = np.array(list(itertools.product((0, 1), repeat=4)), dtype=np.int8)
    failures, n_pads, n_injections, n_rows = [], 0, 0, 0

    def kept(x_pad, y_pad, pos):
        """Whether each case (row) keeps its parity under each pad and block
        position row (column), placed by _place."""
        k = len(pos)
        rows = np.repeat(cases, k, axis=0)
        tile = (len(cases), 1)
        X, Y = _place(*(rows[:, [j]] for j in range(4)), np.tile(x_pad, tile), np.tile(y_pad, tile),
                      np.tile(pos, tile))
        same = (X & Y).sum(axis=1) % 2 == (rows[:, 0] & rows[:, 1])
        return same.reshape(len(cases), k)

    for D in range(_CERT_MAX_D + 1):
        pads = np.array(list(itertools.product((0, 1), repeat=2 * D)), dtype=np.int8)
        x_pad, y_pad = pads[:, :D], pads[:, D:]
        sampler_keeps = np.ones(len(pads), dtype=bool)
        sampler_keeps[_odd_rows(x_pad, y_pad)] = False
        bad = kept(x_pad, y_pad, np.broadcast_to(np.arange(4), (len(pads), 4))) != sampler_keeps
        failures += [{"case": cases[c].tolist(), "x_pad": x_pad[j].tolist(),
                      "y_pad": y_pad[j].tolist(), "sampler_keeps": bool(sampler_keeps[j])}
                     for c, j in np.argwhere(bad)[:3]]
        n_pads, n_rows = n_pads + len(pads), n_rows + bad.size
    for L in range(4, _CERT_MAX_L + 1):
        pos = np.array(list(itertools.permutations(range(L), 4)), dtype=np.int8)
        zeros = np.zeros((len(pos), L - 4), dtype=np.int8)
        bad = ~kept(zeros, zeros, pos)
        failures += [{"case": cases[c].tolist(), "positions": pos[j].tolist()}
                     for c, j in np.argwhere(bad)[:3]]
        n_injections, n_rows = n_injections + len(pos), n_rows + bad.size
    pairs = np.array(list(itertools.product((0, 1), repeat=8)), dtype=np.int8)
    x, y, none = pairs[:, 0:2], pairs[:, 2:4], np.zeros((1, 0), dtype=np.int8)
    X, Y = _place(x, y, pairs[:, 4:6], pairs[:, 6:8], none, none, np.arange(8)[None])
    bad = (X & Y).sum(axis=1) % 2 != (x & y).sum(axis=1) % 2
    failures += [{"pair_case": pairs[j].tolist()} for j in np.flatnonzero(bad)[:3]]
    n_rows += len(pairs)
    return {
        "check": "ip-preservation-certificate",
        "parameters": {"max_D": _CERT_MAX_D, "max_L": _CERT_MAX_L},
        "n_cases": len(cases),
        "n_pad_pairs": n_pads,
        "n_injections": n_injections,
        "n_pair_cases": len(pairs),
        "n_expansions": n_rows,
        "pass": not failures,
        "failures": failures,
        "elapsed_s": time.perf_counter() - start,
    }


def verify_ip_preservation(n_trials: int, d_values=(1, 2, 3, 4, 5, 6), seed: int = 0) -> int:
    """Count parity violations of the randomization over n_trials draws.

    Trials are spread evenly over d_values with D = 100 d; always returns 0
    unless the construction is broken.  An empty sweep is an error, not a
    pass.
    """
    (n_trials,) = _sizes(n_trials=n_trials)
    d_values = tuple(d_values)
    if not d_values:
        raise ValueError("d_values must be a non-empty list of positive integers, got ()")
    d_values = _sizes(**{f"d_values entry {i}": d for i, d in enumerate(d_values)})
    per_d = -(-n_trials // len(d_values))
    violations = 0
    for d in d_values:
        D = 100 * d
        rng = np.random.default_rng([seed, d])
        for start in range(0, per_d, _IP_CHUNK):
            n = min(_IP_CHUNK, per_d - start)
            xs = rng.integers(0, 2, size=(n, d), dtype=np.int8)
            ys = rng.integers(0, 2, size=(n, d), dtype=np.int8)
            X, Y = randomize_batch(xs, ys, D, rng)
            violations += int((ip_mod2(xs, ys) != ip_mod2(X, Y)).sum())
    return violations
