"""Network forward/backward correctness, SGD steps, checkpoints."""

import struct

import numpy as np
import pytest

from oracles import checkpoint_blob, max_relative_grad_error, numeric_gradients, one_hot_grads
from svdlab import tinynn
from svdlab.errors import InvalidInput
from svdlab.tinynn import LayerParams, ModelParams, backprop, forward_batch, init_model, sgd_step


def small_model(seed=0):
    # 8 -> 6 -> 3 is 75 parameters, cheap enough for full finite differences
    return init_model(8, [6], 3, seed=seed)


def random_batch(rng, model, n):
    """(x, labels): n uniform inputs, each drawn before its label."""
    draws = [(rng.uniform(0.0, 1.0, model.input_dim), int(rng.integers(model.num_classes)))
             for _ in range(n)]
    return np.array([d[0] for d in draws]), np.array([d[1] for d in draws])


class TestForward:
    def test_zero_params_zero_logits(self):
        model = ModelParams([LayerParams(np.zeros((3, 5)), np.zeros(3))])
        logits, _, _ = forward_batch(model, np.ones((1, 5)))
        np.testing.assert_array_equal(logits, np.zeros((1, 3)))

    def test_identity_layer(self):
        model = ModelParams([LayerParams(np.eye(4), np.zeros(4))])
        v = np.array([[0.1, -0.2, 0.7, 0.0]])
        logits, _, _ = forward_batch(model, v)
        np.testing.assert_allclose(logits, v)

    def test_hand_computed_relu_net(self):
        w1 = np.array([[1.0, -1.0], [0.5, 2.0]])
        b1 = np.array([0.25, -1.0])
        w2 = np.array([[1.0, 1.0], [-1.0, 0.0]])
        b2 = np.array([0.0, 0.5])
        model = ModelParams(
            [LayerParams(w1, b1), LayerParams(w2, b2)]
        )
        x = np.array([[2.0, 1.0]])
        # z1 = (1.25, 2.0) -> relu passthrough; logits = (3.25, -0.75)
        logits, _, _ = forward_batch(model, x)
        np.testing.assert_allclose(logits, [[3.25, -0.75]])

    def test_shape_mismatch(self):
        for bad in (np.ones((1, 9)), np.ones(8), np.ones((2, 3, 9))):
            with pytest.raises(InvalidInput):
                forward_batch(small_model(), bad)

    def test_stacked_batches_match_slices_exactly(self):
        # a leading (restart) axis must not change any slice's arithmetic;
        # the cached ReLU masks are forward_batch's preacts > 0, one per
        # hidden layer (two of them in the second model)
        rng = np.random.default_rng(3)
        for hidden in ([32], [32, 7]):
            model = init_model(64, hidden, 4, seed=5)
            x = rng.uniform(0.0, 1.0, size=(3, 4, 64))
            y = np.eye(4)[rng.integers(0, 4, size=(3, 4))]
            grads, (acts, masks, probs, deltas) = backprop(model, x, y)
            preacts = forward_batch(model, x)[2]
            assert len(masks) == len(hidden)
            for mask, z in zip(masks, preacts):
                assert np.array_equal(mask, z > 0.0)
            for j in range(3):
                gj, (aj, mj, qj, dj) = backprop(model, x[j], y[j])
                for stacked, alone in zip(grads + acts + masks + [probs] + deltas,
                                          gj + aj + mj + [qj] + dj):
                    assert np.array_equal(stacked[j], alone)

    def test_a_model_needs_a_layer(self):
        with pytest.raises(InvalidInput, match="at least one layer"):
            ModelParams([])

    def test_layer_dims_must_chain(self):
        with pytest.raises(InvalidInput):
            ModelParams(
                [
                    LayerParams(np.zeros((4, 8)), np.zeros(4)),
                    LayerParams(np.zeros((3, 5)), np.zeros(3)),
                ]
            )


class TestBackprop:
    def test_gradients_match_finite_differences(self):
        self.check_finite_differences(small_model(seed=3))

    def test_gradients_match_finite_differences_through_two_hidden_layers(self):
        # 8 -> 6 -> 5 -> 3: the hidden-to-hidden ReLU mask is in the chain
        self.check_finite_differences(init_model(8, [6, 5], 3, seed=3))

    @staticmethod
    def check_finite_differences(model):
        rng = np.random.default_rng(5)
        assert sum(t.size for t in model.tensors()) <= 200
        batch = random_batch(rng, model, 4)
        grads = one_hot_grads(model, *batch)
        numeric = numeric_gradients(model, *batch)
        assert max_relative_grad_error(grads, numeric) < 1e-4

    def test_duplicate_example_equals_single(self):
        rng = np.random.default_rng(8)
        model = small_model()
        x, labels = random_batch(rng, model, 1)
        g1 = one_hot_grads(model, x, labels)
        g2 = one_hot_grads(model, x[[0, 0]], labels[[0, 0]])
        for a, b in zip(g1, g2):
            np.testing.assert_allclose(a, b, atol=1e-15)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(9)
        model = small_model()
        x, labels = random_batch(rng, model, 5)
        g1 = one_hot_grads(model, x, labels)
        g2 = one_hot_grads(model, x[::-1], labels[::-1])
        for a, b in zip(g1[::2], g2[::2]):
            np.testing.assert_allclose(a, b, atol=1e-14)

    def test_deterministic(self):
        rng = np.random.default_rng(10)
        model = small_model()
        batch = random_batch(rng, model, 3)
        g1 = one_hot_grads(model, *batch)
        g2 = one_hot_grads(model, *batch)
        for a, b in zip(g1, g2):
            np.testing.assert_array_equal(a, b)


class TestSgdStep:
    def test_update_values(self):
        model = ModelParams([LayerParams(np.ones((1, 1)), np.zeros(1))])
        new = sgd_step(model, [np.full((1, 1), 0.5), np.zeros(1)], 0.1)
        assert new.layers[0].weight[0, 0] == pytest.approx(0.95)

    def test_vanishing_lr_keeps_params(self):
        rng = np.random.default_rng(1)
        model = small_model()
        batch = random_batch(rng, model, 2)
        grads = one_hot_grads(model, *batch)
        new = sgd_step(model, grads, 1e-300)
        for a, b in zip(model.layers, new.layers):
            np.testing.assert_allclose(a.weight, b.weight, atol=1e-290)

    @pytest.mark.parametrize("lr", [0.0, -0.5])
    def test_rejects_a_learning_rate_that_is_not_positive(self, lr):
        # the CLI's fl.local_lr > 0 stops this first, so only a direct call reaches it
        model = small_model()
        grads = [np.zeros_like(t) for t in model.tensors()]
        with pytest.raises(InvalidInput, match="learning rate must be positive"):
            sgd_step(model, grads, lr)

    def test_two_steps_differ_from_one_summed(self):
        # recomputing gradients between steps matters; guard against
        # accidentally linearizing local training
        rng = np.random.default_rng(2)
        model = small_model()
        batch = random_batch(rng, model, 3)
        g1 = one_hot_grads(model, *batch)
        once = sgd_step(model, g1, 0.5)
        g2 = one_hot_grads(once, *batch)
        twice = sgd_step(once, g2, 0.5)
        summed = [a + b for a, b in zip(g1, g2)]
        combined = sgd_step(model, summed, 0.5)
        diff = max(
            np.max(np.abs(a.weight - b.weight))
            for a, b in zip(twice.layers, combined.layers)
        )
        assert diff < 1e-12  # same grads summed == same steps applied
        g2_fresh = one_hot_grads(model, *batch)
        assert any(
            np.max(np.abs(a - b)) > 1e-9
            for a, b in zip(g2[::2], g2_fresh[::2])
        )


class TestAccuracy:
    def test_rejects_a_single_unbatched_row(self):
        # the evaluation set is (n, D): a bare (D,) row is not a one-row set
        model = ModelParams([LayerParams(np.eye(2), np.zeros(2))])
        with pytest.raises(InvalidInput):
            tinynn.accuracy(model, np.array([1.0, 0.0]), np.array([0]))

    @pytest.mark.parametrize("shape, count", [((2, 3, 2), 3), ((3, 2), 1), ((3, 2), 2), ((3, 2), 4)])
    def test_rejects_a_stack_or_a_label_count_other_than_the_rows(self, shape, count):
        # forward_batch takes a (2, 3, 2) stack; one label would broadcast
        model = ModelParams([LayerParams(np.eye(2), np.zeros(2))])
        with pytest.raises(InvalidInput):
            tinynn.accuracy(model, np.ones(shape), np.zeros(count, dtype=int))


class TestCheckpoint:
    def test_roundtrip(self, tmp_path):
        model = init_model(10, [5, 4], 3, seed=12)
        path = tmp_path / "model.bin"
        path.write_bytes(tinynn.model_bytes(model))
        loaded = tinynn.load_model(path)
        assert len(loaded.layers) == len(model.layers)
        for a, b in zip(model.layers, loaded.layers):
            np.testing.assert_array_equal(a.weight, b.weight)
            np.testing.assert_array_equal(a.bias, b.bias)
        assert tinynn.model_bytes(loaded) == path.read_bytes()

    def test_magic_header(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"not a checkpoint")
        with pytest.raises(InvalidInput):
            tinynn.load_model(path)
        good = tmp_path / "model.bin"
        good.write_bytes(tinynn.model_bytes(small_model()))
        assert good.read_bytes().startswith(b"SVDLAB-MODEL-v2\n")

    def test_layout(self, tmp_path):
        # magic, the width count, the widths input first, then the tensors
        # in wire order, each row-major
        model = init_model(4, [3], 2)
        path = tmp_path / "model.bin"
        path.write_bytes(tinynn.model_bytes(model))
        assert path.read_bytes() == (b"SVDLAB-MODEL-v2\n" + struct.pack("<4I", 3, 4, 3, 2)
                                     + b"".join(t.tobytes() for t in model.tensors()))
        assert path.read_bytes() == checkpoint_blob([4, 3, 2], model.tensors())

    def test_malformed_files(self, tmp_path):
        good = tmp_path / "model.bin"
        good.write_bytes(tinynn.model_bytes(small_model()))
        blob = good.read_bytes()
        widths = [[], [6], [6, 0], [0, 4], [6, 4, 0]]  # fewer than two, or a 0
        for name, data in (("short", blob[:-1]), ("header_only", blob[:18]),
                           *((f"widths_{i}", checkpoint_blob(d)) for i, d in enumerate(widths))):
            path = tmp_path / f"{name}.bin"
            path.write_bytes(data)
            with pytest.raises(InvalidInput):
                tinynn.load_model(path)
