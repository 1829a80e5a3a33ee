"""Network IR: evaluation semantics, absorption transforms, serialization."""

import dataclasses
import functools
import json
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracle_utils import dense_forward

from depthsep import networks
from depthsep.networks import (
    RELU,
    SIGMOID,
    THRESHOLD,
    DenseNetwork,
    ThresholdCircuit,
    absorb_input_map,
    average_ensemble,
    network_from_json,
    network_to_json,
    splice,
)
from depthsep import build_instance, sample_a4d
from depthsep.depth3 import (
    Approx1DSpec,
    build_exact_relu,
    build_generic,
    reference_g2,
    relu_1d_approximator,
)
from depthsep.threshold import compile_network, compile_scalar, threshold_1d_approximator


def single_neuron(w=1.0, b=0.0, v=1.0, out_b=0.0, activation=RELU):
    return DenseNetwork(
        1,
        ((np.array([[w]]), np.array([b])),),
        np.array([v]),
        out_b,
        activation,
    )


def random_net(rng, input_dim=4, width=8, activation=RELU, scale=1.0):
    return DenseNetwork(
        input_dim,
        (
            (
                rng.normal(0, scale, size=(width, input_dim)),
                rng.normal(0, scale, size=width),
            ),
        ),
        rng.normal(0, scale, size=width),
        float(rng.normal(0, scale)),
        activation,
    )


def block_rows(net):
    return max(1, networks._ACTIVATION_BLOCK // max(net.widths))


def wide_net(rng, activation, widths=(4096, 24), input_dim=4):
    fan_in, hidden = input_dim, []
    for w in widths:
        hidden.append((rng.normal(size=(w, fan_in)) / np.sqrt(fan_in), rng.normal(size=w)))
        fan_in = w
    return DenseNetwork(input_dim, tuple(hidden), rng.normal(size=fan_in), 0.25, activation)


class TestRowBlocks:
    """Row-blocked evaluate_batch against a one-shot dense forward pass."""

    @pytest.mark.parametrize("activation", [RELU, SIGMOID, THRESHOLD], ids=lambda a: a.tag)
    @pytest.mark.parametrize("widths", [(4096,), (4096, 24), (24, 4096)])
    def test_matches_one_shot_forward(self, activation, widths):
        rng = np.random.default_rng(len(widths) + widths[0])
        net = wide_net(rng, activation, widths)
        block = block_rows(net)
        assert block == 64
        for n in (0, 1, block - 1, block, block + 1, 3 * block + 5):
            X = rng.normal(size=(n, 4))
            got = net.evaluate_batch(X)
            assert got.shape == (n,)
            np.testing.assert_allclose(got, dense_forward(net, X), rtol=0, atol=1e-12)
            assert np.array_equal(got, net.evaluate_batch(X))
        x = rng.normal(size=4)
        np.testing.assert_allclose(net.evaluate_batch(x), dense_forward(net, x), rtol=0, atol=1e-12)
        assert net.evaluate_batch(x).shape == (1,)

    @pytest.mark.parametrize(
        "make",
        [
            pytest.param(lambda: compile_scalar(RELU, R=10.0, delta=0.01)[0], id="relu-staircase"),
            pytest.param(lambda: compile_scalar(SIGMOID, R=10.0, delta=0.01)[0], id="sigmoid-staircase"),
            pytest.param(
                lambda: relu_1d_approximator(Approx1DSpec(reference_g2, -10.0, 10.0, 1.0, 0.01)), id="relu-1d"
            ),
        ],
    )
    def test_threshold_staircase_is_exact(self, make):
        """Fan-in-1 layers (staircases, 1-d approximants) are evaluated as a
        broadcast product, bit for bit the K = 1 product of the weights."""
        net = make()
        assert net.hidden[0][0].shape[1] == 1
        block = block_rows(net)
        xs = np.linspace(-10.0, 10.0, 3 * block + 7)
        for n in (0, 1, block - 1, block, block + 1, xs.size):
            X = xs[:n, None]
            assert np.array_equal(net.evaluate_batch(X), dense_forward(net, X))
        assert np.array_equal(net.evaluate_batch(xs[3:4]), dense_forward(net, xs[3:4]))


# values where an in-place activation could part from its fn: NaN, the
# infinities, signed zeros, the threshold's step and its neighbours, the
# sigmoid's exp overflow and the largest doubles
EDGE_VALUES = np.array(
    [np.nan, np.inf, -np.inf, 0.0, -0.0, 0.5, np.nextafter(0.5, np.inf), np.nextafter(0.5, -np.inf),
     710.0, -710.0, 1e308, -1e308]
)


class TestInPlaceActivations:
    """evaluate_batch applies a built-in activation in its workspace; the
    result is the public fn's, bit for bit."""

    @pytest.mark.parametrize("activation", [RELU, SIGMOID, THRESHOLD], ids=lambda a: a.tag)
    def test_in_place_form_is_fn_bit_for_bit(self, activation):
        z = np.concatenate([EDGE_VALUES, np.random.default_rng(4).normal(0.0, 40.0, size=997)])
        work = z.copy()
        in_place = networks._in_place_form(activation)
        assert in_place is not activation
        got = in_place(work)
        assert got is work
        assert got.tobytes() == activation.fn(z).tobytes()

    @pytest.mark.parametrize("activation", [RELU, SIGMOID, THRESHOLD], ids=lambda a: a.tag)
    def test_public_fn_stays_out_of_place(self, activation):
        """Training calls fn and then derivative on the same pre-activations."""
        z = EDGE_VALUES.copy()
        out = activation.fn(z)
        assert z.tobytes() == EDGE_VALUES.tobytes() and not np.shares_memory(out, z)

    @pytest.mark.parametrize("activation", [RELU, SIGMOID, THRESHOLD], ids=lambda a: a.tag)
    def test_input_kept_and_result_owned(self, activation):
        net = wide_net(np.random.default_rng(6), activation, widths=(4096, 24))
        X = np.random.default_rng(7).normal(size=(3 * block_rows(net) + 5, 4))
        kept = X.copy()
        first = net.evaluate_batch(X)
        assert X.tobytes() == kept.tobytes()
        assert first.flags.owndata and not np.shares_memory(first, X)
        want = first.copy()
        net.evaluate_batch(-X)
        assert first.tobytes() == want.tobytes()

    @pytest.mark.parametrize("activation", [RELU, SIGMOID, THRESHOLD], ids=lambda a: a.tag)
    def test_fan_in_one_layer_is_the_k1_product(self, activation):
        """Block by block, so that the output products see the same rows, a
        fan-in-1 layer and its in-place activation give the bits of the
        K = 1 product followed by fn."""
        net = wide_net(np.random.default_rng(2), activation, widths=(4096,), input_dim=1)
        block = block_rows(net)
        X = np.linspace(-10.0, 10.0, 3 * block + 7)[:, None]
        want = np.concatenate([dense_forward(net, X[i : i + block]) for i in range(0, len(X), block)])
        assert net.evaluate_batch(X).tobytes() == want.tobytes()

    def test_custom_activation_evaluates_through_fn(self):
        """A custom fn, here an unhashable callable, is called once per layer
        and row block on the pre-activations."""

        @dataclasses.dataclass
        class Sine:
            calls: list

            def __call__(self, z):
                self.calls.append(z.shape)
                return np.sin(z)

        sine = Sine([])
        rng = np.random.default_rng(9)
        net = wide_net(rng, networks.Activation("sin", sine), widths=(4096, 24))
        block = block_rows(net)
        X = rng.normal(size=(2 * block + 1, 4))
        got = net.evaluate_batch(X)
        assert sine.calls == [(block, 4096), (block, 24)] * 2 + [(1, 4096), (1, 24)]
        np.testing.assert_allclose(got, dense_forward(net, X), rtol=0, atol=1e-12)


def factored_forward(net, X):
    """dense_forward, except that a spliced layer's pre-activations are its
    factored products ((h W^T + b)[:, :, None] * h_w + h_b)."""
    h = np.atleast_2d(np.asarray(X, dtype=np.float64))
    for layer in net.hidden:
        if isinstance(layer, networks._SplicedLayer):
            W, b, h_w, h_b = layer.factors
            z = ((h @ W.T + b)[:, :, None] * h_w + h_b).reshape(len(h), -1)
        else:
            z = h @ layer[0].T + layer[1]
        h = net.activation(z)
    return h @ net.out_w + net.out_b


def record_threads(monkeypatch, raise_on=None):
    """Record the thread of every _pre_activation call; raise on the calls
    made by thread ``raise_on`` ("main" or "worker"), if given."""
    seen, original = [], networks._pre_activation

    def spy(layer, h, out):
        seen.append(threading.current_thread())  # the object, as an ident may be reused
        if raise_on == ("main" if seen[-1] is threading.main_thread() else "worker"):
            raise ZeroDivisionError(f"raised on the {raise_on} thread")
        return original(layer, h, out)

    monkeypatch.setattr(networks, "_pre_activation", spy)
    return seen


WORKER_NETS = {
    "spliced-relu": lambda: build_generic(2, 0.05).net,
    "threshold-staircase": lambda: compile_scalar(RELU, R=10.0, delta=0.01)[0],
    "sigmoid-staircase": lambda: compile_scalar(SIGMOID, R=10.0, delta=0.01)[0],
    "sigmoid-fan-in-1": lambda: wide_net(np.random.default_rng(5), SIGMOID, widths=(4096,), input_dim=1),
}


class TestWorkers:
    """Row blocks of a net whose hidden layers are all spliced or fan-in 1,
    with a built-in activation, are dealt round-robin to one thread per
    usable core; every block gives the bits it gives on one thread."""

    @pytest.mark.parametrize("cores", [2, 3])
    @pytest.mark.parametrize("name", list(WORKER_NETS))
    def test_blocks_match_blockwise_forward(self, monkeypatch, name, cores):
        net = WORKER_NETS[name]()
        assert all(isinstance(layer, networks._SplicedLayer) or layer[0].shape[1] == 1 for layer in net.hidden)
        monkeypatch.setattr(networks, "_usable_cores", lambda: cores)
        block = block_rows(net)
        rng = np.random.default_rng(cores)
        n_max = (3 * cores + 1) * block
        X_all = (rng.uniform(-12.0, 12.0, size=(n_max, 1)) if net.input_dim == 1
                 else rng.permutation(support_and_uniform(net.input_dim, seed=cores, n=n_max)))
        before, seen = threading.active_count(), record_threads(monkeypatch)
        for blocks in (1, 2, 3, 3 * cores + 1):
            for n in ((blocks - 1) * block + 1, blocks * block):
                X = X_all[:n]
                want = np.concatenate([factored_forward(net, X[i : i + block]) for i in range(0, n, block)])
                seen.clear()
                assert net.evaluate_batch(X).tobytes() == want.tobytes(), (blocks, n)
                assert len(set(seen)) == min(blocks, cores) and threading.main_thread() in seen
                assert threading.active_count() == before

    @pytest.mark.parametrize("raise_on", ["worker", "main"])
    def test_exception_reaches_caller(self, monkeypatch, raise_on):
        """An exception raised in a block reaches the caller with its type
        and message, and every worker has been joined."""
        net = WORKER_NETS["threshold-staircase"]()
        monkeypatch.setattr(networks, "_usable_cores", lambda: 2)
        X = np.linspace(-10.0, 10.0, 4 * block_rows(net))[:, None]
        before = threading.active_count()
        record_threads(monkeypatch, raise_on=raise_on)
        with pytest.raises(ZeroDivisionError, match=f"^raised on the {raise_on} thread$"):
            net.evaluate_batch(X)
        assert threading.active_count() == before

    @pytest.mark.parametrize(
        "make",
        [
            pytest.param(lambda: wide_net(np.random.default_rng(8), RELU, widths=(4096, 24)), id="plain-gemm"),
            pytest.param(
                lambda: dataclasses.replace(
                    build_generic(2, 0.05).net, activation=networks.Activation("relu-copy", lambda z: np.maximum(z, 0))
                ),
                id="custom-activation",
            ),
        ],
    )
    def test_calling_thread_only(self, monkeypatch, make):
        """A plain fan-in > 1 layer is a BLAS GEMM, which spreads over the
        cores itself, and a custom activation is arbitrary Python: their
        blocks all run on the calling thread."""
        net = make()
        monkeypatch.setattr(networks, "_usable_cores", lambda: 2)
        X = np.random.default_rng(3).normal(size=(4 * block_rows(net), net.input_dim))
        seen = record_threads(monkeypatch)
        np.testing.assert_allclose(net.evaluate_batch(X), dense_forward(net, X), rtol=0, atol=1e-12)
        assert len(seen) == 4 * len(net.hidden) and set(seen) == {threading.main_thread()}


class TestEvaluate:
    def test_single_relu_neuron(self):
        net = single_neuron()
        assert net.evaluate([2.0]) == 2.0
        assert net.evaluate([-1.0]) == 0.0

    def test_threshold_fires_at_half(self):
        net = single_neuron(activation=THRESHOLD)
        assert net.evaluate([0.5]) == 1.0
        assert net.evaluate([0.4999]) == 0.0

    def test_dimension_check(self):
        net = single_neuron()
        with pytest.raises(ValueError):
            net.evaluate([1.0, 2.0])

    def test_depth_and_widths(self, rng):
        net = random_net(rng)
        assert net.depth == 2
        assert net.widths == (8,)

    def test_max_weight(self):
        net = DenseNetwork(
            2,
            ((np.array([[1.0, -3.0]]), np.array([0.5])),),
            np.array([2.0]),
            -4.0,
            RELU,
        )
        assert net.max_weight == 4.0


class TestSplice:
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("kind", ["relu-interpolant", "threshold-staircase"])
    def test_spliced_layer_sums_h_over_neurons(self, seed, kind):
        """act(W' x + b') . kron(a, h.out_w) + h.out_b sum(a) = sum_i a_i h(W[i] x + b[i])."""
        if kind == "relu-interpolant":
            h = relu_1d_approximator(Approx1DSpec(reference_g2, -4.0, 4.0, 1.0, 0.1))
        else:
            h, _plan = compile_scalar(SIGMOID, 4.0, 0.05)
        rng = np.random.default_rng(seed)
        n, m = 3 + seed, 5
        W, b, a = rng.normal(size=(n, m)), rng.normal(size=n), rng.normal(size=n)
        X = rng.uniform(-1.0, 1.0, size=(500, m))
        W_s, b_s = splice(W, b, h)
        assert W_s.shape == (n * h.widths[0], m) and b_s.shape == (n * h.widths[0],)
        out_w, out_b = np.kron(a, h.out_w), h.out_b * a.sum()
        spliced = DenseNetwork(m, ((W_s, b_s),), out_w, out_b, h.activation)
        pre = X @ W.T + b
        direct = sum(a[i] * h.evaluate_batch(pre[:, i : i + 1]) for i in range(n))
        np.testing.assert_allclose(spliced.evaluate_batch(X), direct, rtol=0, atol=1e-12)


@functools.cache
def spliced_nets():
    """Every kind of network the package builds through splice, built once."""
    nets = {f"exact d={d}": build_exact_relu(d) for d in range(1, 7)}
    for name, approximator in (("relu", relu_1d_approximator), ("threshold", threshold_1d_approximator)):
        for d in (1, 2, 3):
            for eps in (0.1, 0.05):
                nets[f"generic-{name} d={d} eps={eps}"] = build_generic(d, eps, approximator).net
    rng = np.random.default_rng(5)
    for k, activation in enumerate((RELU, SIGMOID, RELU)):
        net = random_net(rng, input_dim=6, width=5, activation=activation, scale=1.5)
        nets[f"compiled {k} {activation.tag}"] = compile_network(net, delta=0.1)
    return nets


def support_and_uniform(input_dim, seed, n=1500):
    """Support samples of the hard instance (when it is one) plus uniform
    points of [-1, 1]^input_dim."""
    rng = np.random.default_rng(seed)
    X = rng.uniform(-1.0, 1.0, size=(n, input_dim))
    d = input_dim // 4
    if input_dim % 4 == 0 and d <= 3:
        X = np.vstack([X, sample_a4d(build_instance(d, seed=seed), n, seed=seed).points])
    return X


class TestFactoredLayers:
    """Spliced layers are evaluated through their factors, within 1e-12 of
    a dense forward over the stored weights."""

    @pytest.mark.parametrize("name", list(spliced_nets()))
    def test_matches_dense_forward(self, name):
        net = spliced_nets()[name]
        assert any(isinstance(layer, networks._SplicedLayer) for layer in net.hidden)
        X = support_and_uniform(net.input_dim, seed=len(name))
        np.testing.assert_allclose(net.evaluate_batch(X), dense_forward(net, X), rtol=0, atol=1e-12)

    def test_exact_net_is_exact_on_the_support(self):
        for d in (1, 2, 3):
            batch = sample_a4d(build_instance(d, seed=d), 2000, seed=d)
            assert np.array_equal(build_exact_relu(d).evaluate_batch(batch.points), batch.labels)

    def test_row_blocks(self):
        net = build_generic(2, 0.05).net
        block = block_rows(net)
        X = support_and_uniform(net.input_dim, seed=3, n=(3 * block + 5) // 2 + 1)[: 3 * block + 5]
        full = net.evaluate_batch(X)
        assert full.shape == (3 * block + 5,)
        np.testing.assert_allclose(full, dense_forward(net, X), rtol=0, atol=1e-12)
        for n in (0, 1, block - 1, block, block + 1, 3 * block + 5):
            got = net.evaluate_batch(X[:n])
            assert got.shape == (n,)
            np.testing.assert_allclose(got, full[:n], rtol=0, atol=1e-12)
            assert np.array_equal(got, net.evaluate_batch(X[:n]))
        np.testing.assert_allclose(net.evaluate_batch(X[7]), full[7:8], rtol=0, atol=1e-12)

    def test_dense_pair_is_kron_of_factors(self):
        layer = build_exact_relu(3).hidden[1]
        (W_s, b_s), (W, b, h_w, h_b) = layer, layer.factors
        assert np.array_equal(W_s, np.kron(W, h_w[:, None]))
        assert np.array_equal(b_s, (np.outer(b, h_w) + h_b).ravel())

    def test_pre_activation_reads_the_factors(self):
        layer = build_generic(2, 0.1).net.hidden[1]
        W, b, h_w, h_b = layer.factors
        X = np.random.default_rng(8).uniform(0.0, 1.0, size=(300, W.shape[1]))
        want = ((X @ W.T + b)[:, :, None] * h_w + h_b).reshape(len(X), -1)
        out = np.empty_like(want)
        assert networks._pre_activation(layer, X, out) is out
        assert out.tobytes() == want.tobytes()

    def test_factors_read_only(self):
        for layer in build_generic(1, 0.1).net.hidden:
            for a in (*layer, *layer.factors):
                assert not a.flags.writeable

    def test_copies_keep_factors(self):
        import copy
        import pickle

        net = build_generic(1, 0.1).net
        X = support_and_uniform(net.input_dim, seed=4)
        for twin in (copy.deepcopy(net), pickle.loads(pickle.dumps(net))):
            assert all(isinstance(layer, networks._SplicedLayer) for layer in twin.hidden)
            assert np.array_equal(twin.evaluate_batch(X), net.evaluate_batch(X))

    def test_rebuilt_weights_are_plain_layers(self):
        """Layers rebuilt from their weights (a JSON load, the first layer of
        an absorbed map) are plain pairs with the same weights."""
        net = build_generic(1, 0.1).net
        X = support_and_uniform(net.input_dim, seed=6)
        loaded = network_from_json(network_to_json(net))
        mapped = absorb_input_map(net, np.eye(net.input_dim), np.zeros(net.input_dim))
        for other, rebuilt in ((loaded, loaded.hidden), (mapped, mapped.hidden[:1])):
            assert not any(isinstance(layer, networks._SplicedLayer) for layer in rebuilt)
            for (W, b), (W_ref, b_ref) in zip(other.hidden, net.hidden, strict=True):
                assert np.array_equal(W, W_ref) and np.array_equal(b, b_ref)
            np.testing.assert_allclose(other.evaluate_batch(X), net.evaluate_batch(X), rtol=0, atol=1e-12)

    def test_absorbed_map_keeps_deeper_spliced_layers(self):
        """absorb_input_map rebuilds only the first layer: the spliced second
        layer and the output weights are the original objects, so the
        result is still evaluated through the factors."""
        net = build_generic(3, 0.05).net
        rng = np.random.default_rng(12)
        P = np.eye(net.input_dim)[rng.permutation(net.input_dim)]
        c = rng.uniform(-0.05, 0.05, size=net.input_dim)
        mapped = absorb_input_map(net, P, c)
        assert mapped.hidden[1] is net.hidden[1] and mapped.out_w is net.out_w
        assert isinstance(mapped.hidden[1], networks._SplicedLayer)
        X = support_and_uniform(net.input_dim, seed=9)
        np.testing.assert_allclose(
            mapped.evaluate_batch(X), net.evaluate_batch(X @ P.T + c), rtol=0, atol=1e-12
        )


class TestAbsorbShift:
    """P = I: absorb_input_map as the input shift net'(z) = net(z + c)."""

    def test_zero_shift_is_identity(self, rng):
        net = random_net(rng)
        shifted = absorb_input_map(net, np.eye(4), np.zeros(4))
        Z = rng.normal(size=(100, 4))
        np.testing.assert_array_equal(shifted.evaluate_batch(Z), net.evaluate_batch(Z))

    def test_equivalence_on_probes(self, rng):
        net = random_net(rng)
        c = rng.normal(size=4)
        shifted = absorb_input_map(net, np.eye(4), c)
        Z = rng.normal(size=(10_000, 4))
        err = np.abs(shifted.evaluate_batch(Z) - net.evaluate_batch(Z + c)).max()
        assert err <= 1e-12
        assert shifted.widths == net.widths

    def test_weight_growth_bound(self, rng):
        net = random_net(rng)
        c = rng.normal(size=4)
        shifted = absorb_input_map(net, np.eye(4), c)
        assert shifted.max_weight <= net.max_weight * (1 + np.abs(c).sum()) + 1e-12

    def test_works_on_depth3(self, rng):
        from depthsep.depth3 import build_exact_relu

        net = build_exact_relu(1)
        c = rng.normal(0, 0.05, size=4)
        shifted = absorb_input_map(net, np.eye(4), c)
        assert shifted.widths == net.widths
        Z = rng.normal(0, 0.3, size=(2000, 4))
        err = np.abs(shifted.evaluate_batch(Z) - net.evaluate_batch(Z + c)).max()
        assert err <= 1e-12


class TestAbsorbMap:
    def test_identity_map(self, rng):
        net = random_net(rng)
        mapped = absorb_input_map(net, np.eye(4), np.zeros(4))
        Z = rng.normal(size=(50, 4))
        np.testing.assert_allclose(mapped.evaluate_batch(Z), net.evaluate_batch(Z), atol=1e-14)

    def test_coordinate_swap(self, rng):
        net = random_net(rng, input_dim=2, width=5)
        P = np.array([[0.0, 1.0], [1.0, 0.0]])
        mapped = absorb_input_map(net, P, np.zeros(2))
        Z = rng.normal(size=(1000, 2))
        err = np.abs(mapped.evaluate_batch(Z) - net.evaluate_batch(Z[:, [1, 0]])).max()
        assert err <= 1e-12

    def test_bit_flip(self, rng):
        net = random_net(rng, input_dim=3, width=4)
        P = np.diag([-1.0, 1.0, 1.0])
        b = np.array([1.0, 0.0, 0.0])
        mapped = absorb_input_map(net, P, b)
        Z = rng.uniform(0, 1, size=(1000, 3))
        flipped = Z.copy()
        flipped[:, 0] = 1.0 - flipped[:, 0]
        err = np.abs(mapped.evaluate_batch(Z) - net.evaluate_batch(flipped)).max()
        assert err <= 1e-12

    def test_constant_row_and_selection(self, rng):
        # map R^2 -> R^3 pinning the middle coordinate to 0.7
        net = random_net(rng, input_dim=3, width=4)
        P = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]])
        b = np.array([0.0, 0.7, 0.0])
        mapped = absorb_input_map(net, P, b)
        assert mapped.input_dim == 2
        Z = rng.normal(size=(200, 2))
        expanded = np.column_stack([Z[:, 0], np.full(200, 0.7), Z[:, 1]])
        err = np.abs(mapped.evaluate_batch(Z) - net.evaluate_batch(expanded)).max()
        assert err <= 1e-12

    def test_architecture_unchanged(self, rng):
        net = random_net(rng)
        mapped = absorb_input_map(net, np.eye(4)[:, :3], np.zeros(4))
        assert mapped.widths == net.widths
        assert mapped.depth == net.depth


class TestAverageEnsemble:
    def test_single_net_identity(self, rng):
        net = random_net(rng)
        avg = average_ensemble([net], [1.0])
        Z = rng.normal(size=(100, 4))
        np.testing.assert_allclose(avg.evaluate_batch(Z), net.evaluate_batch(Z), atol=1e-14)

    def test_two_halves_equal_original(self, rng):
        net = random_net(rng)
        avg = average_ensemble([net, net], [0.5, 0.5])
        Z = rng.normal(size=(1000, 4))
        err = np.abs(avg.evaluate_batch(Z) - net.evaluate_batch(Z)).max()
        assert err <= 1e-12

    def test_mean_of_members(self, rng):
        nets = [random_net(rng) for _ in range(5)]
        avg = average_ensemble(nets, [0.2] * 5)
        Z = rng.normal(size=(500, 4))
        direct = np.mean([n.evaluate_batch(Z) for n in nets], axis=0)
        assert np.abs(avg.evaluate_batch(Z) - direct).max() <= 1e-9

    def test_width_adds_up(self, rng):
        nets = [random_net(rng, width=w) for w in (3, 5, 7)]
        avg = average_ensemble(nets, [1, 1, 1])
        assert avg.widths == (15,)
        assert avg.depth == 2

    def test_rejects_mixed_activations(self, rng):
        a = random_net(rng, activation=RELU)
        b = random_net(rng, activation=SIGMOID)
        with pytest.raises(ValueError):
            average_ensemble([a, b], [0.5, 0.5])

    def test_rejects_depth3(self, rng):
        deep = DenseNetwork(
            2,
            (
                (rng.normal(size=(3, 2)), rng.normal(size=3)),
                (rng.normal(size=(3, 3)), rng.normal(size=3)),
            ),
            rng.normal(size=3),
            0.0,
            RELU,
        )
        with pytest.raises(ValueError):
            average_ensemble([deep], [1.0])


class TestSerialization:
    def test_roundtrip_bit_exact(self, rng):
        net = random_net(rng, scale=3.7)
        back = network_from_json(network_to_json(net))
        assert back.input_dim == net.input_dim
        assert back.activation.tag == net.activation.tag
        for (W1, b1), (W2, b2) in zip(back.hidden, net.hidden):
            assert np.array_equal(W1, W2)
            assert np.array_equal(b1, b2)
        assert np.array_equal(back.out_w, net.out_w)
        assert back.out_b == net.out_b

    def test_stable_text(self, rng):
        net = random_net(rng)
        assert network_to_json(net) == network_to_json(net)

    @given(
        n_in=st.integers(1, 5),
        width=st.integers(1, 6),
        seed=st.integers(0, 10**6),
    )
    @settings(max_examples=50)
    def test_roundtrip_random_shapes(self, n_in, width, seed):
        gen = np.random.default_rng(seed)
        net = random_net(gen, input_dim=n_in, width=width, scale=10.0)
        back = network_from_json(network_to_json(net))
        assert np.array_equal(back.hidden[0][0], net.hidden[0][0])
        assert np.array_equal(back.hidden[0][1], net.hidden[0][1])
        assert np.array_equal(back.out_w, net.out_w)
        assert back.out_b == net.out_b

    @pytest.mark.parametrize(
        "where,name",
        [(("layers", 0, "W"), "layer 0"), (("layers", 1, "b"), "layer 1"), (("output", "w"), "output")],
    )
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_rejects_non_finite_values(self, rng, where, name, bad):
        net = wide_net(rng, RELU, widths=(3, 2), input_dim=2)
        doc = json.loads(network_to_json(net))
        *path, key = where
        target = doc
        for k in path:
            target = target[k]
        arr = np.asarray(target[key], dtype=np.float64)
        arr.flat[0] = bad
        target[key] = arr.tolist()
        with pytest.raises(ValueError, match=name):
            network_from_json(json.dumps(doc))

    def test_rejects_non_finite_output_bias(self, rng):
        doc = json.loads(network_to_json(random_net(rng)))
        doc["output"]["b"] = float("nan")
        with pytest.raises(ValueError, match="output"):
            network_from_json(json.dumps(doc))

    @pytest.mark.parametrize(
        "where", [("layers",), ("layers", 0, "b"), ("output", "w"), ("activation",), ("input_dim",)]
    )
    def test_missing_field_names_it(self, rng, where):
        doc = json.loads(network_to_json(random_net(rng)))
        *path, key = where
        target = doc
        for k in path:
            target = target[k]
        del target[key]
        with pytest.raises(ValueError, match=f"'{key}'"):
            network_from_json(json.dumps(doc))

    @pytest.mark.parametrize(
        "where, value, message",
        [
            (("input_dim",), 2.9, "input_dim must be a positive integer"),
            (("input_dim",), True, "input_dim must be a positive integer"),
            (("input_dim",), "2", "input_dim must be a positive integer"),
            (("layers", 0, "W", 0, 0), "1.5", "layer 0 W must be a 2-d array of JSON numbers"),
            (("layers", 0, "W", 0, 0), True, "layer 0 W must be a 2-d array of JSON numbers"),
            (("layers", 0, "b", 0), False, "layer 0 b must be a 1-d array of JSON numbers"),
            (("output", "w", 0), "1.5", "output w must be a 1-d array of JSON numbers"),
            (("output", "b"), "0.5", "output b must be a JSON number"),
            (("output", "b"), [0.5], "output b must be a JSON number"),
        ],
    )
    def test_rejects_coerced_field(self, rng, where, value, message):
        """Strings, booleans and fractional sizes were once read as numbers."""
        doc = json.loads(network_to_json(random_net(rng)))
        *path, key = where
        target = doc
        for k in path:
            target = target[k]
        target[key] = value
        with pytest.raises(ValueError, match=f"^{message}"):
            network_from_json(json.dumps(doc))

    @pytest.mark.parametrize("width, out_b", [(4, 0.0), (0, 0.75)])
    def test_width_zero_layer_round_trips(self, width, out_b):
        """An all-zero (or width-0) ReLU net compiles to a width-0 threshold
        layer, which the evaluator reads as the output bias alone."""
        net = DenseNetwork(3, ((np.zeros((width, 3)), np.zeros(width)),), np.zeros(width), out_b, RELU)
        compiled = compile_network(net, 0.1)
        assert compiled.widths == (0,)
        back = network_from_json(network_to_json(compiled))
        assert back.widths == (0,) and back.hidden[0][0].shape == (0, 3)
        X = np.random.default_rng(3).uniform(size=(5, 3))
        assert np.array_equal(back.evaluate_batch(X), compiled.evaluate_batch(X))
        assert np.array_equal(back.evaluate_batch(X), np.full(5, out_b))

    def test_custom_activation_not_serializable(self):
        from depthsep.networks import Activation

        custom = Activation("custom", lambda z: z, lipschitz=1.0)
        net = DenseNetwork(
            1, ((np.ones((1, 1)), np.zeros(1)),), np.ones(1), 0.0, custom
        )
        with pytest.raises(ValueError):
            network_to_json(net)


class TestCircuit:
    def test_constant_outputs(self):
        high = single_neuron(w=0.0, b=1.0, v=0.0, out_b=0.9, activation=THRESHOLD)
        low = single_neuron(w=0.0, b=1.0, v=0.0, out_b=0.2, activation=THRESHOLD)
        assert ThresholdCircuit(high).evaluate([0.0]) == 1
        assert ThresholdCircuit(low).evaluate([0.0]) == 0

    def test_output_step_is_unconditional(self):
        assert [f.name for f in dataclasses.fields(ThresholdCircuit)] == ["base"]
        net = single_neuron(w=1.0, b=0.0, v=0.3, out_b=0.2, activation=THRESHOLD)
        circuit = ThresholdCircuit(net)
        assert circuit.evaluate_batch(np.array([[0.0], [0.7]])).tolist() == [0, 1]

    def test_requires_threshold(self):
        with pytest.raises(ValueError):
            ThresholdCircuit(single_neuron(activation=RELU))
