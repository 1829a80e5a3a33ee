"""Independent oracles for the benchmark's checks.

Nothing here calls the package: each function recomputes a quantity from
its definition (bit decodes, brute-force enumeration, float log-gamma sums,
a plain forward pass over a network's stored weights) so that it can judge
the program's outputs.  None of them compares against stored output.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from fractions import Fraction

import numpy as np


class Mismatch(AssertionError):
    """An output of the program disagrees with its oracle."""


def require(ok, message: str) -> None:
    if not ok:
        raise Mismatch(message)


# ---------------------------------------------------------------------------
# networks
# ---------------------------------------------------------------------------

_ACTIVATIONS = {
    "relu": lambda z: np.maximum(z, 0.0),
    "threshold": lambda z: (z >= 0.5).astype(np.float64),
    "sigmoid": lambda z: 1.0 / (1.0 + np.exp(-z)),
}


def forward(net, X: np.ndarray, chunk: int = 2048) -> np.ndarray:
    """Plain dense forward pass over a network's stored weights, by row chunk,
    with the activation taken from its tag rather than from the network."""
    act = _ACTIVATIONS[net.activation.tag]
    X = np.asarray(X, dtype=np.float64)
    out = np.empty(len(X))
    for lo in range(0, len(X), chunk):
        h = X[lo : lo + chunk]
        for W, b in net.hidden:
            h = act(h @ W.T + b)
        out[lo : lo + chunk] = h @ net.out_w + net.out_b
    return out


def layer_max_weight(W: np.ndarray, b: np.ndarray) -> float:
    return float(max(np.abs(W).max(initial=0.0), np.abs(b).max(initial=0.0)))


def cube(n: int) -> np.ndarray:
    """All of {0,1}^n as float rows, in product order."""
    return np.array(list(itertools.product((0.0, 1.0), repeat=n)))


# ---------------------------------------------------------------------------
# the hard instance
# ---------------------------------------------------------------------------


def decode_bits(index: np.ndarray, n_bits: int) -> np.ndarray:
    """Binary digits of each index, least significant first."""
    index = np.asarray(index, dtype=np.int64)
    return np.stack([(index >> j) & 1 for j in range(n_bits)], axis=-1)


def component_labels(matching: np.ndarray, d: int) -> np.ndarray:
    """Parity of <first d bits, last d bits> of each component's vertex."""
    bits = decode_bits(matching, 2 * d)
    return (bits[:, :d] * bits[:, d:]).sum(axis=1) % 2


def component_centers(points: np.ndarray, matching: np.ndarray, d: int) -> np.ndarray:
    bits = decode_bits(matching, 2 * d).astype(np.float64)
    return np.hstack([points, bits / (4.0 * math.sqrt(d))])


def min_pairwise_distance(points: np.ndarray, chunk: int = 256) -> float:
    sq = (points**2).sum(axis=1)
    best = math.inf
    for lo in range(0, len(points) - 1, chunk):
        blk = points[lo : lo + chunk]
        d2 = sq[lo : lo + chunk, None] + sq[None, :] - 2.0 * blk @ points.T
        rows = np.arange(len(blk))[:, None] + lo
        d2[np.arange(len(points))[None, :] <= rows] = np.inf
        best = min(best, float(d2.min()))
    return math.sqrt(max(best, 0.0))


# ---------------------------------------------------------------------------
# the randomization
# ---------------------------------------------------------------------------


def arrangement(x, y, xm, ym, xpad, ypad) -> tuple[np.ndarray, np.ndarray]:
    """(x+x', x', x+x', x', x'') and (y+y', y', y', y+y', y''), sums mod 2."""
    xs, ys = np.bitwise_xor(x, xm), np.bitwise_xor(y, ym)
    return (
        np.concatenate([xs, xm, xs, xm, xpad]).astype(np.int8),
        np.concatenate([ys, ym, ym, ys, ypad]).astype(np.int8),
    )


def parity(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """<X, Y> mod 2 of bit vectors (rows)."""
    return np.bitwise_and(X, Y).sum(axis=-1, dtype=np.int64) % 2


def signature_counts(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Rows of (#(0,0), #(0,1), #(1,0), #(1,1)) column counts."""
    code = 2 * np.asarray(X, dtype=np.int64) + np.asarray(Y, dtype=np.int64)
    return np.stack([(code == k).sum(axis=-1) for k in range(4)], axis=-1)


def _even_pads(D: int):
    for xp in itertools.product((0, 1), repeat=D):
        for yp in itertools.product((0, 1), repeat=D):
            if sum(a & b for a, b in zip(xp, yp)) % 2 == 0:
                yield np.array(xp, dtype=np.int8), np.array(yp, dtype=np.int8)


def _pre_permutation_codes(x, y, D: int) -> Counter:
    """Multiplicity of each pre-permutation column-code sequence over all
    mask pairs and all admissible pads (every draw equally likely)."""
    d = len(x)
    x, y = np.asarray(x, dtype=np.int8), np.asarray(y, dtype=np.int8)
    pads = list(_even_pads(D))
    seqs: Counter = Counter()
    for xm in itertools.product((0, 1), repeat=d):
        for ym in itertools.product((0, 1), repeat=d):
            xm_a, ym_a = np.array(xm, dtype=np.int8), np.array(ym, dtype=np.int8)
            for xp, yp in pads:
                X, Y = arrangement(x, y, xm_a, ym_a, xp, yp)
                seqs[tuple((2 * X + Y).tolist())] += 1
    return seqs


def brute_force_signature_law(x, y, D: int) -> dict[tuple[int, ...], Fraction]:
    """Law of the count signature, by enumerating masks and pads.  The
    permutation does not change counts, so it is not enumerated."""
    seqs = _pre_permutation_codes(x, y, D)
    total = sum(seqs.values())
    law: Counter = Counter()
    for seq, mult in seqs.items():
        law[tuple(seq.count(k) for k in range(4))] += mult
    return {sig: Fraction(c, total) for sig, c in law.items()}


def brute_force_l2(x, y, D: int) -> Fraction:
    """Squared L2 norm of the law of the randomized pair, enumerating masks,
    pads and every permutation of the columns."""
    seqs = _pre_permutation_codes(x, y, D)
    L = 4 * len(x) + D
    law: Counter = Counter()
    for seq, mult in seqs.items():
        for perm_seq, n in Counter(itertools.permutations(seq)).items():
            law[perm_seq] += mult * n
    total = sum(seqs.values()) * math.factorial(L)
    return Fraction(sum(c * c for c in law.values()), total * total)


def total_variation_bound(n_outcomes: int, n_samples: int, fail_prob: float) -> float:
    """TV radius a correct sampler exceeds with probability below fail_prob
    (Bretagnolle-Huber-Carol: P(|p_hat - p|_1 >= e) <= 2^k exp(-n e^2 / 2))."""
    l1 = math.sqrt(2.0 * (n_outcomes * math.log(2.0) - math.log(fail_prob)) / n_samples)
    return l1 / 2.0


# ---------------------------------------------------------------------------
# the two analytic bounds, in floating point
# ---------------------------------------------------------------------------


def compositions4(total: int) -> np.ndarray:
    """All (a, b, c, e) >= 0 with a + b + c + e = total, by stars and bars."""
    rows = []
    for bars in itertools.combinations(range(total + 3), 3):
        cuts = (-1,) + bars + (total + 3,)
        rows.append([cuts[i + 1] - cuts[i] - 1 for i in range(4)])
    return np.array(rows, dtype=np.int64)


def a1_ratios(d: int, D: int) -> dict[tuple[int, ...], float]:
    """LHS/RHS of the multinomial square-ratio bound for every split of d,
    with the LHS summed in float through log-gamma."""
    lnfact = np.array([math.lgamma(n + 1) for n in range(D + d + 1)])
    comps = compositions4(D)
    splits = compositions4(d)
    ln_m_D = lnfact[D] - lnfact[comps].sum(axis=1)
    ln_m_shift = lnfact[D + d] - lnfact[comps[None, :, :] + splits[:, None, :]].sum(axis=2)
    terms = 2.0 * ln_m_D[None, :] - ln_m_shift
    top = terms.max(axis=1)
    ln_lhs = top + np.log(np.exp(terms - top[:, None]).sum(axis=1))
    spread = ((splits - d / 4.0) ** 2).sum(axis=1)
    ln_rhs = 4.0 / D * spread + 1.5 * math.log1p(d / D) + (D - d) * math.log(4.0)
    ratios = np.exp(ln_lhs - ln_rhs)
    return {tuple(int(v) for v in split): float(r) for split, r in zip(splits, ratios)}


def a2_ratios(d: int, s: Fraction) -> dict[tuple[tuple[int, ...], tuple[int, ...]], float]:
    """E over all mask pairs of exp(s sum_i (c_i - d)^2), over (1/(1-24ds))^2,
    for every input pair (x, y) in {0,1}^d x {0,1}^d."""
    s_f = float(s)
    rhs = (1.0 / (1.0 - 24.0 * d * s_f)) ** 2
    masks = list(itertools.product((0, 1), repeat=d))
    out = {}
    for x in masks:
        for y in masks:
            total = 0.0
            for xm in masks:
                for ym in masks:
                    z = np.zeros(0, dtype=np.int8)
                    X, Y = arrangement(np.array(x), np.array(y), np.array(xm), np.array(ym), z, z)
                    c = signature_counts(X, Y)
                    total += math.exp(s_f * float(((c - d) ** 2).sum()))
            out[(x, y)] = total / len(masks) ** 2 / rhs
    return out
