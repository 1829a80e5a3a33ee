"""Shared brute-force oracles used by the unit and acceptance suites.

These deliberately avoid the library's own code paths (convolutions,
count-signature shortcuts, common-denominator sums, Gram screens, row
blocks, the shared arrangement table, the packed bit decode and batched
sampler, the layer splice, the mask law by coordinate type) so they can
arbitrate disagreements.  The module also holds the parity wave, the AND
gadget and the mass and mean of a count law, which only the tests use.  The
brute-force pair law and the central-difference gradient of the depth-2
loss are the ``verify-all`` battery's own (``depthsep.harness``), imported
here so that one copy serves both.
"""

import itertools
import math
from collections import defaultdict
from fractions import Fraction
from functools import lru_cache
from math import factorial

import mpmath as mp
import numpy as np

from depthsep.harness import _brute_force_pair_law as brute_force_pair_law  # noqa: F401
from depthsep.harness import _central_difference_gradient as central_difference_gradient  # noqa: F401
from depthsep.networks import RELU, THRESHOLD, DenseNetwork
from depthsep.reduction import exact_count_distribution
from depthsep.threshold import _plan_to_network, _segment_lipschitz


def multinomial(n, parts):
    out = factorial(n)
    for p in parts:
        out //= factorial(p)
    return out


def compositions4(total):
    return [c for c in itertools.product(range(total + 1), repeat=4) if sum(c) == total]


def per_mask_count_numerators(xbits, ybits, D):
    """Integer numerators of the count-signature law: every one of the 4^d
    mask arrangements is convolved on its own with the even-pad
    multinomials, repeated signatures included.  The numerators sum to the
    law's common denominator."""
    d = len(xbits)
    pads = {c: multinomial(D, c) for c in compositions4(D) if c[3] % 2 == 0}
    law = defaultdict(int)
    for xm in itertools.product((0, 1), repeat=d):
        for ym in itertools.product((0, 1), repeat=d):
            xs = tuple(a ^ m for a, m in zip(xbits, xm))
            ys = tuple(a ^ m for a, m in zip(ybits, ym))
            base = [0, 0, 0, 0]
            for a, b in zip(xs + xm + xs + xm, ys + ym + ym + ys):
                base[2 * a + b] += 1
            for pad, w in pads.items():
                law[tuple(b + p for b, p in zip(base, pad))] += w
    return dict(law)


def fraction_l2_norm_squared(xbits, ybits, D):
    """Squared L2 norm of the randomized pair law with one Fraction per
    signature: sum_sig P[sig]^2 / multinomial(4d + D; sig)."""
    numerators = per_mask_count_numerators(xbits, ybits, D)
    N = 4 * len(xbits) + D
    denom = sum(numerators.values())
    acc = Fraction(0)
    for sig, num in numerators.items():
        acc += Fraction(num * num, multinomial(N, sig))
    return acc / denom**2


def convolution_l2_norm_squared(x, y, D):
    """Squared L2 norm from the whole count law (each distinct mask
    signature convolved with the even-pad table), as one integer sum
    sum_sig num^2 n1! n2! n3! n4! over N! denom^2."""
    law = exact_count_distribution(x, y, D)
    f = [factorial(k) for k in range(law.total_length + 1)]
    acc = sum(num * num * f[a] * f[b] * f[c] * f[e] for (a, b, c, e), num in law.numerators.items())
    return Fraction(acc, f[-1] * law.denominator**2)


def float_l2_ratio_to_uniform(xbits, ybits, D):
    """4^(4d+D) ||P||^2 in float64, summed over every count signature with
    log-factorial tables, one slice of signatures (n1 fixed) at a time.

    Every term is positive, so the relative error stays within a small
    multiple of the number of terms times the unit roundoff, plus the
    exp/log error of each term (about 1e-13 at N = 4d + D ~ 200).
    """
    d = len(xbits)
    N = 4 * d + D
    shifts = defaultdict(int)
    for xm in itertools.product((0, 1), repeat=d):
        for ym in itertools.product((0, 1), repeat=d):
            xs = tuple(a ^ m for a, m in zip(xbits, xm))
            ys = tuple(a ^ m for a, m in zip(ybits, ym))
            c = [0, 0, 0, 0]
            for a, b in zip(xs + xm + xs + xm, ys + ym + ym + ys):
                c[2 * a + b] += 1
            shifts[tuple(c)] += 1
    logf = np.concatenate([[0.0], np.cumsum(np.log(np.arange(1, N + 1)))])
    # P[sig] = sum_s m_s 4^-d multinomial(D; sig - s) 4^-D / (1/2 + 2^(-D-1))
    scale = -d * np.log(4) - D * np.log(4) - np.log1p(2.0**-D) + np.log(2)
    total = 0.0
    for n1 in range(N + 1):
        n2, n3 = np.triu_indices(N - n1 + 1)  # n2 + n3 <= N - n1, as (n2, n3 - n2)
        n3 = n3 - n2
        n4 = N - n1 - n2 - n3
        sig = (n1, n2, n3, n4)
        prob = np.zeros(n2.size)
        for s, m in shifts.items():
            parts = [k - si for k, si in zip(sig, s)]
            ok = np.ones(n2.size, dtype=bool)
            for part in parts:
                ok &= np.asarray(part >= 0)
            ok &= parts[3] % 2 == 0
            log_w = logf[D] - sum(logf[np.where(ok, part, 0)] for part in parts)
            prob += np.where(ok, m * np.exp(log_w + scale), 0.0)
        log_multi = logf[N] - sum(logf[k] for k in sig)
        total += float(np.sum(prob * prob * np.exp(N * np.log(4) - log_multi)))
    return total


def fraction_a1_lhs(split, D):
    """LHS of the multinomial square-ratio bound for one split of d, one
    Fraction per composition of D."""
    d = sum(split)
    acc = Fraction(0)
    for comp in compositions4(D):
        shifted = tuple(c + s for c, s in zip(comp, split))
        acc += Fraction(multinomial(D, comp) ** 2, multinomial(D + d, shifted))
    return acc


@lru_cache(maxsize=4)
def _squared_multinomials(D):
    return tuple((comp, multinomial(D, comp) ** 2) for comp in compositions4(D))


def composition_a1_lhs(split, D):
    """LHS of the multinomial square-ratio bound for one split of d, as one
    integer sum over the C(D+3,3) compositions of D divided by (D + d)!:
    sum_comp multinomial(D; comp)^2 prod_i (comp_i + split_i)!."""
    f = [factorial(k) for k in range(D + sum(split) + 1)]
    s0, s1, s2, s3 = split
    total = sum(sq * f[a + s0] * f[b + s1] * f[c + s2] * f[e + s3]
                for (a, b, c, e), sq in _squared_multinomials(D))
    return Fraction(total, f[-1])


def composition_a1_report(d, D):
    """The report fields of the ratio-bound sweep with one composition sum
    per split, every split evaluated on its own in lexicographic order:
    max_ratio, worst_split (the first split reaching it), pass, failures and
    n_splits."""
    worst, worst_split, failures = 0.0, None, []
    with mp.workprec(220):
        for split in compositions4(d):
            lhs = composition_a1_lhs(split, D)
            spread = sum((mp.mpf(di) - mp.mpf(d) / 4) ** 2 for di in split)
            rhs = (
                mp.e ** (mp.mpf(4) / D * spread)
                * (1 + mp.mpf(d) / D) ** mp.mpf(1.5)
                * mp.mpf(4) ** (D - d)
            )
            ratio = float(mp.mpf(lhs.numerator) / mp.mpf(lhs.denominator) / rhs)
            if ratio > worst:
                worst, worst_split = ratio, split
            if ratio > 1.0 + 1e-10:
                failures.append({"split": list(split), "ratio": ratio})
    return {
        "max_ratio": worst,
        "worst_split": list(worst_split),
        "pass": not failures,
        "failures": failures,
        "n_splits": len(compositions4(d)),
    }


def sequential_greedy_packing(d, seed, max_attempts=None):
    """The greedy packing one proposal at a time: each proposal is scaled
    onto the sphere of radius 0.76 and kept when np.linalg.norm puts it more
    than 0.4 from every placed point.  Returns (points, attempts used to
    place the last point), or (None, max_attempts) when the budget runs out."""
    n = 4**d
    if max_attempts is None:
        max_attempts = max(10_000, 200 * n)
    rng = np.random.default_rng(seed)
    pts = np.empty((n, 2 * d))
    placed = 0
    for attempt in range(1, max_attempts + 1):
        v = rng.standard_normal(2 * d)
        v *= 0.76 / np.linalg.norm(v)
        if placed == 0 or (np.linalg.norm(pts[:placed] - v, axis=1) > 0.4).all():
            pts[placed] = v
            placed += 1
            if placed == n:
                return pts, attempt
    return None, max_attempts


def sequential_accept(run, placed):
    """The rows of ``run`` the sequential greedy keeps after ``placed``, in
    order: each row is scaled onto the sphere of radius 0.76 as one draw and
    kept when np.linalg.norm puts it more than 0.4 from every point kept so
    far."""
    pts = [*placed]
    for raw in run:
        v = raw * (0.76 / np.linalg.norm(raw))
        if not pts or (np.linalg.norm(np.array(pts) - v, axis=1) > 0.4).all():
            pts.append(v)
    return np.array(pts[len(placed) :]).reshape(-1, run.shape[1])


def difference_min_pairwise(points, block=512):
    """Minimum pairwise distance from the full difference tensor
    ((a - b)**2).sum() of each block of rows against all points."""
    n = points.shape[0]
    if n < 2:
        return math.inf
    best = math.inf
    for i in range(0, n, block):
        blk = points[i : i + block]
        d2 = ((blk[:, None, :] - points[None, :, :]) ** 2).sum(-1)
        for r in range(blk.shape[0]):
            if i + r + 1 < n:
                best = min(best, float(d2[r, i + r + 1 :].min()))
    return math.sqrt(best)


def dense_forward(net, X):
    """One-shot forward pass of a DenseNetwork over all rows at once."""
    h = np.atleast_2d(np.asarray(X, dtype=np.float64))
    for W, b in net.hidden:
        h = net.activation(h @ W.T + b)
    return h @ net.out_w + net.out_b


def block_positions_loop(pos, L, rng):
    """Settle rows of first proposals (a list of lists) column by column:
    each round redraws, in row order, every row whose column j repeats an
    earlier entry of the row, until none does."""
    for j in range(1, len(pos[0]) if pos else 0):
        hit = [r for r in range(len(pos)) if pos[r][j] in pos[r][:j]]
        while hit:
            for r, p in zip(hit, rng.integers(0, L, size=len(hit)).tolist()):
                pos[r][j] = p
            hit = [r for r in hit if pos[r][j] in pos[r][:j]]
    return pos


def hand_decoded_bits(rng, n, m):
    """n rows of m bits from ceil(m / 8) uniform bytes per row, each byte
    read by hand most significant bit first, (byte >> (7 - j)) & 1 for
    j = 0..7; the bits past m in a row's last byte are dropped."""
    rows = rng.integers(0, 256, size=(n, -(-m // 8)), dtype=np.uint8).tolist()
    bits = [[(row[i // 8] >> (7 - i % 8)) & 1 for i in range(m)] for row in rows]
    return np.array(bits, dtype=np.int8).reshape(n, m)


def per_row_draw_record(d, D, rng):
    """One randomization drawn on its own: one row of 2d + 2D bits read as
    x_mask, y_mask, x_pad, y_pad, then rows of 2D bits read as (x_pad, y_pad)
    until the number of positions with both bits 1 is even, then one
    position proposal per block column, each redrawn in turn until it
    misses the columns before it.  perm sends block column k to pos[k] and
    the pads, in order, to the free positions in increasing order.  Returns
    (x_mask, y_mask, x_pad, y_pad, perm)."""
    (first,) = hand_decoded_bits(rng, 1, 2 * d + 2 * D)
    x_mask, y_mask, x_pad, y_pad = first[:d], first[d:2 * d], first[2 * d:2 * d + D], first[2 * d + D:]
    while int(np.sum(x_pad & y_pad)) % 2:
        (pads,) = hand_decoded_bits(rng, 1, 2 * D)
        x_pad, y_pad = pads[:D], pads[D:]
    L = 4 * d + D
    (pos,) = block_positions_loop([rng.integers(0, L, size=4 * d).tolist()], L, rng)
    perm = np.zeros(L, dtype=np.int64)
    free = [p for p in range(L) if p not in pos]
    for k, p in enumerate(pos + free):
        perm[p] = k
    return x_mask, y_mask, x_pad, y_pad, perm


def flip_order_arrange(x, mask, pad, flip_order):
    """(x^m, m, x^m, m, pad), or (x^m, m, m, x^m, pad) with flip_order."""
    masked = x ^ mask
    if flip_order:
        blocks = (masked, mask, mask, masked)
    else:
        blocks = (masked, mask, masked, mask)
    return np.concatenate(blocks + (pad,))


def flip_order_expand_pair(x, y, record):
    """The expanded pair of one record: both arrangements, indexed by perm."""
    X_pre = flip_order_arrange(x, record.x_mask, record.x_pad, flip_order=False)
    Y_pre = flip_order_arrange(y, record.y_mask, record.y_pad, flip_order=True)
    return X_pre[record.perm], Y_pre[record.perm]


def concatenated_randomize_batch(xs, ys, D, rng):
    """Batched randomization: one hand-decoded row of masks and pads per
    pair, then one row of pads per odd row until every row is even; the
    arrangement written out as one concatenation per side, and each row's
    columns written one by one: block column k at the row's settled
    position k, the pads in order at the free positions."""
    n, d = xs.shape
    first = hand_decoded_bits(rng, n, 2 * d + 2 * D)
    x_mask, y_mask = first[:, :d], first[:, d:2 * d]
    x_pad, y_pad = first[:, 2 * d:2 * d + D].copy(), first[:, 2 * d + D:].copy()
    while True:
        odd = (np.sum(x_pad & y_pad, axis=1) % 2).astype(bool)
        if not odd.any():
            break
        pads = hand_decoded_bits(rng, int(odd.sum()), 2 * D)
        x_pad[odd], y_pad[odd] = pads[:, :D], pads[:, D:]
    xm = xs ^ x_mask
    ym = ys ^ y_mask
    X_pre = np.concatenate([xm, x_mask, xm, x_mask, x_pad], axis=1)
    Y_pre = np.concatenate([ym, y_mask, y_mask, ym, y_pad], axis=1)
    L = 4 * d + D
    pos = block_positions_loop(rng.integers(0, L, size=(n, 4 * d)).tolist(), L, rng)
    X, Y = np.zeros_like(X_pre), np.zeros_like(Y_pre)
    for r in range(n):
        free = [p for p in range(L) if p not in pos[r]]
        for k, p in enumerate(pos[r] + free):
            X[r, p], Y[r, p] = X_pre[r, k], Y_pre[r, k]
    return X, Y


def filled_block_input_map(record, d):
    """(P, c) filled coordinate by coordinate: a masked position reads its
    input bit (+1) or its flip (-1, offset 1), a mask or pad position is
    a constant; rows are then gathered by the permutation."""
    D = record.x_pad.size
    L = 4 * d + D
    P_pre = np.zeros((2 * L, 2 * d))
    c_pre = np.zeros(2 * L)

    def fill(base, src_offset, mask, pad, flip_order):
        masked_blocks = (0, 2) if not flip_order else (0, 3)
        const_blocks = (1, 3) if not flip_order else (1, 2)
        for blk in masked_blocks:
            for k in range(d):
                row = base + blk * d + k
                if mask[k]:
                    P_pre[row, src_offset + k] = -1.0
                    c_pre[row] = 1.0
                else:
                    P_pre[row, src_offset + k] = 1.0
        for blk in const_blocks:
            for k in range(d):
                c_pre[base + blk * d + k] = float(mask[k])
        for k in range(D):
            c_pre[base + 4 * d + k] = float(pad[k])

    fill(0, 0, record.x_mask, record.x_pad, flip_order=False)
    fill(L, d, record.y_mask, record.y_pad, flip_order=True)
    gather = np.concatenate([record.perm, L + record.perm])
    return P_pre[gather], c_pre[gather]


def block_signatures(x, y):
    """Count signatures of the arrangement (x^a, a, x^a, a) / (y^b, b, b, y^b)
    for every mask pair (a, b), vectorized over the 4^d rows; row
    a + 2^d b with mask bits least significant first, the row order of
    looped_block_signatures."""
    x = np.asarray(x, dtype=np.int8)
    y = np.asarray(y, dtype=np.int8)
    d = x.size
    masks = ((np.arange(4**d)[:, None] >> np.arange(2 * d)) & 1).astype(np.int8)
    xm, ym = masks[:, :d], masks[:, d:]
    X = np.concatenate([x ^ xm, xm, x ^ xm, xm], axis=1)
    Y = np.concatenate([y ^ ym, ym, ym, y ^ ym], axis=1)
    codes = 2 * X + Y
    return (codes[:, :, None] == np.arange(4)).sum(axis=1, dtype=np.int64)


def per_input_mgf_ratios(d, s):
    """E over the 4^d mask rows of exp(s sum_i (c_i - d)^2) over the bound
    (1/(1 - 24 d s))^2, for every input (x, y) in the order of (x, y) as
    integers, x major, bits least significant first; one 220-bit
    exponential per row."""
    vecs = [tuple((i >> j) & 1 for j in range(d)) for i in range(2**d)]
    ratios = {}
    with mp.workprec(220):
        s_mp = mp.mpf(s.numerator) / mp.mpf(s.denominator)
        rhs = (1 / (1 - 24 * d * s_mp)) ** 2
        for x in vecs:
            for y in vecs:
                sigs = block_signatures(x, y)
                total = mp.mpf(0)
                for dev in ((sigs - d) ** 2).sum(axis=1).tolist():
                    total += mp.e ** (s_mp * dev)
                ratios[(x, y)] = float(total / len(sigs) / rhs)
    return ratios


def looped_block_signatures(x, y):
    """Count signatures of the 4d-entry arrangement, one mask pair at a
    time in row order x_mask + 2^d y_mask, bits least-significant first."""
    d = len(x)
    out = np.zeros((4**d, 4), dtype=np.int64)
    row = 0
    for ym in range(2**d):
        for xm in range(2**d):
            c = [0, 0, 0, 0]
            for j in range(d):
                a = (xm >> j) & 1
                b = (ym >> j) & 1
                xa = x[j] ^ a
                yb = y[j] ^ b
                c[2 * xa + yb] += 1
                c[2 * a + b] += 1
                c[2 * xa + b] += 1
                c[2 * a + yb] += 1
            out[row] = c
            row += 1
    return out


def looped_exact_relu(d):
    """The exact depth-3 ReLU network written out index by index: pair i
    holds rows 2i (bias -5) and 2i + 1 (bias -6) reading 12 sqrt(d) x_i and
    y_i; wave neuron k reads the pair differences with bias -k."""
    n_in = 4 * d
    scale = 12.0 * math.sqrt(d)
    W1 = np.zeros((2 * d, n_in))
    b1 = np.zeros(2 * d)
    for i in range(d):
        for row, bias in ((2 * i, -5.0), (2 * i + 1, -6.0)):
            W1[row, 2 * d + i] = scale
            W1[row, 3 * d + i] = scale
            b1[row] = bias
    W2 = np.zeros((d + 1, 2 * d))
    b2 = np.zeros(d + 1)
    for k in range(d + 1):
        W2[k, 0::2] = 1.0
        W2[k, 1::2] = -1.0
        b2[k] = -float(k)
    out_w = np.array([1.0] + [2.0 * (-1.0) ** k for k in range(1, d + 1)])
    return DenseNetwork(n_in, ((W1, b1), (W2, b2)), out_w, 0.0, RELU)


def assembled_generic(d, h1, h2):
    """The generic depth-3 network assembled block by block from the ramp
    approximant h1 and the wave approximant h2: d shifted copies of h1's
    hidden layer, then h2's hidden layer with h1's outputs absorbed as one
    outer product.  Returns (net, max_weights)."""
    n_in = 4 * d
    scale = 12.0 * math.sqrt(d)
    m1 = h1.widths[0]
    w1_col, b1_vec = h1.hidden[0]
    w1_col = w1_col[:, 0]
    W1 = np.zeros((d * m1, n_in))
    b1 = np.tile(b1_vec, d)
    for i in range(d):
        rows = slice(i * m1, (i + 1) * m1)
        W1[rows, 2 * d + i] = w1_col * scale
        W1[rows, 3 * d + i] = w1_col * scale
    w2_col, b2_vec = h2.hidden[0]
    w2_col = w2_col[:, 0]
    W2 = np.outer(w2_col, np.tile(h1.out_w, d))
    b2 = b2_vec + w2_col * (d * h1.out_b)
    net = DenseNetwork(n_in, ((W1, b1), (W2, b2)), h2.out_w.copy(), h2.out_b, h1.activation)
    max_weights = tuple(
        float(max(np.abs(W).max(initial=0.0), np.abs(b).max(initial=0.0)))
        for W, b in ((W1, b1), (W2, b2))
    )
    return net, max_weights


def per_neuron_compile_network(net, delta):
    """Threshold compilation of a depth-2 network one hidden neuron at a
    time: one staircase over the pre-activations reached on the cube (the
    set of their values up to 12 inputs, else the hull of the neurons'
    ranges, min(W, 0) 1 + b to max(W, 0) 1 + b) at delta / sum |out_w|;
    each neuron's row is scaled by every staircase step weight, and its
    output weight by the staircase's output weights."""
    if net.activation.tag == "threshold":
        return DenseNetwork(
            net.input_dim,
            tuple((W.copy(), b.copy()) for W, b in net.hidden),
            net.out_w.copy(),
            net.out_b,
            THRESHOLD,
        )
    m = net.widths[0]
    mass = float(np.abs(net.out_w).sum())
    if mass == 0.0:
        return DenseNetwork(
            net.input_dim,
            ((np.zeros((0, net.input_dim)), np.zeros(0)),),
            np.zeros(0),
            net.out_b,
            THRESHOLD,
        )
    W, b = net.hidden[0]
    if net.input_dim <= 12:
        cube = np.array(list(itertools.product((0.0, 1.0), repeat=net.input_dim)))
        domain = np.unique(cube @ W.T + b)
    else:
        ones = np.ones(net.input_dim)
        domain = (float((np.minimum(W, 0.0) @ ones + b).min()), float((np.maximum(W, 0.0) @ ones + b).max()))
    scalar_net = _plan_to_network(_segment_lipschitz(net.activation, domain, delta / mass))
    s_w = scalar_net.hidden[0][0][:, 0]
    s_b = scalar_net.hidden[0][1]
    W_rows, b_rows, out_rows = [], [], []
    for i in range(m):
        W_rows.append(np.outer(s_w, W[i]))
        b_rows.append(s_w * b[i] + s_b)
        out_rows.append(net.out_w[i] * scalar_net.out_w)
    out_b = net.out_b + float(net.out_w.sum()) * scalar_net.out_b
    return DenseNetwork(
        net.input_dim,
        ((np.vstack(W_rows), np.concatenate(b_rows)),),
        np.concatenate(out_rows),
        out_b,
        THRESHOLD,
    )


def parity_wave(d, z):
    """Truncated triangle wave relu(z) + sum_{k=1}^{d} 2 (-1)^k relu(z - k).

    Equals the parity of z at integers 0..d, which is what the second
    hidden layer applies to the integer-valued gadget sum.
    """
    z = np.asarray(z, dtype=np.float64)
    out = np.maximum(z, 0.0)
    for k in range(1, d + 1):
        out = out + 2.0 * (-1.0) ** k * np.maximum(z - k, 0.0)
    return out


def and_gadget(u, v):
    """relu(4u + 4v - 5) - relu(4u + 4v - 6) on unit-scale inputs.

    For u, v in [0, 1/4] u [3/4, 1] this equals AND(round(u), round(v)).
    """
    s = 4.0 * np.asarray(u, dtype=np.float64) + 4.0 * np.asarray(v, dtype=np.float64)
    return np.maximum(s - 5.0, 0.0) - np.maximum(s - 6.0, 0.0)


def total_mass(law):
    """Total probability of a CountDistribution, as an exact Fraction."""
    return Fraction(sum(law.numerators.values()), law.denominator)


def expected_counts(law):
    """Exact mean of each of the four counts under a CountDistribution."""
    sums = [0, 0, 0, 0]
    for sig, num in law.numerators.items():
        for i in range(4):
            sums[i] += sig[i] * num
    return tuple(Fraction(s, law.denominator) for s in sums)
