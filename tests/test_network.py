"""Architecture bookkeeping, gradient flow, and checkpoint format tests."""

import hashlib
import itertools
import math
import string
import struct
import tracemalloc
from collections import Counter

import numpy as np
import pytest

import conftest
from hpsep import tensor as T
from hpsep.dsp import GlobalStats
from hpsep.network import (
    BRANCH_KERNELS,
    CompositeLayer,
    DenseBlock,
    LEAKY_ALPHA,
    MaskSeparator,
    MultiScaleBranch,
    NetworkConfig,
    ParamStore,
    load_checkpoint,
    param_count,
    save_checkpoint,
)
from hpsep.tensor import Tensor
from hpsep.training import masking_loss

FROZEN_DEFAULT_PARAMS = 552_062


def tiny_cfg(**overrides):
    base = dict(growth_rate=2, layers_per_block=2, depth=2, final_block_layers=2)
    base.update(overrides)
    return NetworkConfig(**base)


def rng(seed=0):
    return np.random.Generator(np.random.PCG64(seed))


class TestParamStore:
    def test_duplicate_param_name_rejected(self):
        store = ParamStore()
        store.add_param("w", np.zeros(3))
        with pytest.raises(ValueError, match="duplicate"):
            store.add_param("w", np.zeros(3))

    def test_param_buffer_namespace_shared(self):
        store = ParamStore()
        store.add_buffer("running", np.zeros(3))
        with pytest.raises(ValueError, match="duplicate"):
            store.add_param("running", np.zeros(3))

    def test_zero_grad_clears_all(self):
        store = ParamStore()
        a = store.add_param("a", np.ones(2))
        b = store.add_param("b", np.ones(2))
        (a * b).sum().backward()
        assert a.grad is not None and b.grad is not None
        store.zero_grad()
        assert a.grad is None and b.grad is None

    def test_store_on_records_takes_them_without_init(self):
        asked = []

        def records(name, shape):
            asked.append((name, shape))
            if name == "c":
                raise ValueError("refused")
            return np.arange(math.prod(shape), dtype=float).reshape(shape)

        def init(shape):
            raise AssertionError("init must not run for a stored parameter")

        store = ParamStore(records)
        np.testing.assert_array_equal(store.make_param("w", (2, 3), init).data,
                                      np.arange(6.0).reshape(2, 3))
        # buffers are not asked for: the reader fills them after the model is built
        running = store.add_buffer("mean", np.full(2, 7.0))
        np.testing.assert_array_equal(running, [7.0, 7.0])
        store.make_param("b", (3,), init)
        with pytest.raises(ValueError, match="refused"):
            store.make_param("c", (1,), init)
        assert asked == [("w", (2, 3)), ("b", (3,)), ("c", (1,))]
        assert list(store.params) == ["w", "b"]


class TestCompositeLayer:
    def test_output_shape_and_param_names(self):
        store = ParamStore()
        layer = CompositeLayer(store, "c", 3, 5, (3, 3), rng(), np.float64)
        out = layer.forward(Tensor(np.random.default_rng(0).normal(size=(2, 3, 8, 8))), True)
        assert out.shape == (2, 5, 8, 8)
        assert set(store.params) == {"c.conv.weight", "c.conv.bias", "c.bn.gamma", "c.bn.beta"}
        assert set(store.buffers) == {"c.bn.running_mean", "c.bn.running_var"}

    def test_unknown_activation_rejected(self):
        with pytest.raises(ValueError, match="activation"):
            CompositeLayer(ParamStore(), "c", 1, 1, (3, 3), rng(), np.float64,
                           activation="tanh")


def randomize_bn(store, seed):
    """Move every batchnorm's running stats, gamma and beta off their init."""
    gen = np.random.default_rng(seed)
    for name, arr in store.buffers.items():
        arr[...] = (gen.normal(0.0, 0.5, arr.shape) if name.endswith("running_mean")
                    else gen.uniform(0.5, 2.0, arr.shape))
    for name, p in store.params.items():
        if name.endswith("bn.gamma"):
            p.data[...] = gen.uniform(0.5, 1.5, p.shape)
        elif name.endswith("bn.beta"):
            p.data[...] = gen.normal(0.0, 0.1, p.shape)


class TestFoldedInference:
    """Inference folds batchnorm into the conv (see CompositeLayer).

    The reference is the same model with ``_folded`` replaced by the unfolded
    conv -> inference batchnorm, ahead of the same activation op.
    """

    FOLD_RTOL = 1e-12

    def assert_masks_match_unfolded(self, model, x, monkeypatch):
        folded = model.forward(x, training=False)
        with monkeypatch.context() as m:
            m.setattr(CompositeLayer, "_folded", lambda self, x: T.batchnorm(
                T.conv2d(x, self.weight, self.bias), self.gamma, self.beta, self.state, False))
            unfolded = model.forward(x, training=False)
        for got, want in zip(folded, unfolded):
            assert got.dtype == want.dtype
            np.testing.assert_allclose(got.data, want.data, rtol=self.FOLD_RTOL, atol=0.0)

    def test_tiny_model_matches_recorded_eval_path(self, monkeypatch):
        model = MaskSeparator(tiny_cfg(), seed=31)
        randomize_bn(model.store, 31)
        x = np.abs(np.random.default_rng(31).normal(size=(2, 1, 16, 32)))
        self.assert_masks_match_unfolded(model, x, monkeypatch)

    def test_default_model_matches_on_a_full_tile(self, monkeypatch):
        model = MaskSeparator(NetworkConfig(), seed=32)
        randomize_bn(model.store, 32)
        x = np.random.default_rng(32).random((1, 1, 512, 128))
        self.assert_masks_match_unfolded(model, x, monkeypatch)

    @pytest.mark.parametrize("activation", ["relu", "leaky_relu"])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_layer_writes_into_out(self, activation, dtype):
        store = ParamStore()
        layer = CompositeLayer(store, "c", 3, 4, (3, 3), rng(33), dtype, activation=activation)
        randomize_bn(store, 33)
        x = Tensor(np.random.default_rng(34).normal(size=(2, 3, 8, 6)).astype(dtype))
        h = T.batchnorm(T.conv2d(x, layer.weight, layer.bias),
                        layer.gamma, layer.beta, layer.state, False)
        want = T.relu(h) if activation == "relu" else T.leaky_relu(h, LEAKY_ALPHA)
        buf = np.full((2, 7, 8, 6), np.nan, dtype=dtype)
        got = layer.forward(x, False, out=buf[:, 2:6])
        alone = layer.forward(x, False)
        assert got.data.base is buf and got.dtype == dtype and alone.dtype == dtype
        assert np.isnan(buf[:, :2]).all() and np.isnan(buf[:, 6:]).all()
        assert (want.data < 0).any() == (activation == "leaky_relu")
        rtol = self.FOLD_RTOL if dtype == np.float64 else 1e-5
        np.testing.assert_allclose(got.data, want.data, rtol=rtol, atol=rtol)
        np.testing.assert_array_equal(alone.data, got.data)

    def test_eval_with_grad_enabled_records_nothing(self, monkeypatch):
        model = MaskSeparator(tiny_cfg(), seed=36)
        x = Tensor(np.abs(np.random.default_rng(36).normal(size=(2, 1, 16, 16))),
                   requires_grad=True)
        recorded = []
        from_op = T._from_op
        monkeypatch.setattr(T, "_from_op", lambda *a: recorded.append(a[3]) or from_op(*a))
        mp, mh = model.forward(x, training=False)
        assert recorded == []
        with pytest.raises(ValueError, match="not connected"):
            (mp + mh).sum().backward()
        assert x.grad is None
        assert all(p.grad is None for p in model.store.params.values())
        model.forward(x, training=True)
        assert "batchnorm_act" in recorded

    def test_default_training_step_records_two_nodes_per_layer(self, monkeypatch):
        # each of the 139 layers records conv2d and batchnorm_act, plus the
        # concatenation it reads unless that holds only the untracked input,
        # and each of the 28 blocks one recompute for its output; with the
        # loss a step's tape has 482 nodes
        model = MaskSeparator(NetworkConfig(), seed=37)
        x = np.random.default_rng(37).random((1, 1, 16, 16))
        recorded = []
        from_op = T._from_op
        monkeypatch.setattr(T, "_from_op", lambda *a: recorded.append(a[3]) or from_op(*a))
        mp, mh = model.forward(Tensor(x), training=True)
        masking_loss(mp, mh, x, 0.3 * x, 0.7 * x)
        tags = Counter(recorded)
        assert tags["batchnorm_act"] == 139 and tags["concat_channels"] == 139 - 3
        assert tags["conv2d"] == 139 + 2  # and the two heads
        assert tags["recompute"] == 28
        assert len(recorded) == 482

    def test_training_mode_does_not_fold(self):
        model = MaskSeparator(tiny_cfg(), seed=35)
        x = np.abs(np.random.default_rng(35).normal(size=(2, 1, 16, 16)))
        with T.no_grad():
            got = model.forward(x, training=True)
        want = MaskSeparator(tiny_cfg(), seed=35).forward(x, training=True)
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g.data, w.data)


class TestDenseBlock:
    def test_connection_count_is_quadratic_in_depth(self):
        # a plain chain of 4 layers has 4 connections; dense wiring has 10
        store = ParamStore()
        block = DenseBlock(store, "b", 1, 4, 4, (3, 3), rng(), np.float64)
        assert block.connection_count == 4 * 5 // 2 == 10

    @pytest.mark.parametrize("layers", [1, 2, 3, 5])
    def test_connection_count_formula(self, layers):
        block = DenseBlock(ParamStore(), "b", 3, 2, layers, (3, 3), rng(), np.float64)
        assert block.connection_count == layers * (layers + 1) // 2

    def test_layer_input_widths_grow_by_growth_rate(self):
        store = ParamStore()
        DenseBlock(store, "b", 1, 4, 4, (3, 3), rng(), np.float64)
        widths = [store.params[f"b.layer{i}.conv.weight"].shape[1] for i in range(4)]
        assert widths == [1, 5, 9, 13]

    def test_output_is_last_layer_channels(self):
        block = DenseBlock(ParamStore(), "b", 3, 6, 4, (3, 3), rng(), np.float64)
        x = Tensor(np.random.default_rng(1).normal(size=(1, 3, 8, 8)))
        assert block.forward([x], False).shape == (1, 6, 8, 8)

    def test_single_layer_block_equals_composite_layer(self):
        x = Tensor(np.random.default_rng(2).normal(size=(1, 3, 6, 6)))
        block = DenseBlock(ParamStore(), "b", 3, 4, 1, (3, 3), rng(9), np.float64)
        layer = CompositeLayer(ParamStore(), "c", 3, 4, (3, 3), rng(9), np.float64)
        got = block.forward([x], True).data
        want = layer.forward(x, True).data
        np.testing.assert_array_equal(got, want)

    def test_gradients_reach_every_layer(self):
        store = ParamStore()
        block = DenseBlock(store, "b", 1, 2, 3, (3, 3), rng(3), np.float64)
        x = Tensor(np.random.default_rng(3).normal(size=(1, 1, 4, 4)))
        block.forward([x], True).sum().backward()
        for name, p in store.params.items():
            assert p.grad is not None, name
            if name.endswith("conv.bias"):
                # batchnorm subtracts the batch mean, so a constant shift from
                # the preceding conv bias cannot move the output at all
                np.testing.assert_allclose(p.grad, 0.0, atol=1e-12)
            else:
                assert np.any(p.grad != 0.0), name


def concat_chain(block, parts, training):
    """A DenseBlock's forward pass with one explicit concatenation per layer."""
    feats = [parts[0] if len(parts) == 1 else T.concat_channels(parts)]
    for layer in block.layers:
        inp = feats[0] if len(feats) == 1 else T.concat_channels(feats)
        feats.append(layer.forward(inp, training))
    return feats[-1]


class TestDenseBlockBuffer:
    """The shared feature buffer must reproduce the concatenating block exactly."""

    @staticmethod
    def run(forward, shapes, layers, activation, training):
        store = ParamStore()
        c_in = sum(shape[-3] for shape in shapes)
        block = DenseBlock(store, "b", c_in, 3, layers, (3, 3), rng(21),
                           np.float64, activation=activation)
        gen = np.random.default_rng(22)
        parts = [Tensor(gen.normal(size=shape), requires_grad=True) for shape in shapes]
        out = forward(block, parts, training)
        (out * gen.normal(size=out.shape)).sum().backward()
        grads = {n: p.grad for n, p in store.params.items()}
        return out.data, [p.grad for p in parts], grads, store.buffers

    # batch 2 makes every prefix view non-contiguous across the batch axis;
    # two parts are a decoder block's upsampled map and encoder skip
    @pytest.mark.parametrize("shapes", [
        [(2, 2, 8, 6)], [(2, 2, 8, 6), (2, 3, 8, 6)],
    ], ids=["4d", "4d-two-parts"])
    @pytest.mark.parametrize("layers", [1, 3])
    @pytest.mark.parametrize("activation", ["relu", "leaky_relu"])
    @pytest.mark.parametrize("training", [True, False], ids=["train", "infer"])
    def test_matches_explicit_concatenation(self, shapes, layers, activation, training):
        got = self.run(DenseBlock.forward, shapes, layers, activation, training)
        want = self.run(concat_chain, shapes, layers, activation, training)
        np.testing.assert_array_equal(got[0], want[0])
        assert len(got[1]) == len(want[1])
        for g, w in zip(got[1], want[1]):
            np.testing.assert_array_equal(g, w)
        assert got[2].keys() == want[2].keys()
        for name in got[2]:
            np.testing.assert_array_equal(got[2][name], want[2][name], err_msg=name)
        for name in got[3]:
            np.testing.assert_array_equal(got[3][name], want[3][name], err_msg=name)

    def test_layer_outputs_live_in_one_buffer(self):
        block = DenseBlock(ParamStore(), "b", 2, 3, 3, (3, 3), rng(23), np.float64)
        x = Tensor(np.random.default_rng(24).normal(size=(2, 2, 8, 6)))
        seen = []
        for layer in block.layers:
            forward = layer.forward
            layer.forward = lambda inp, training, f=forward, **kw: (
                seen.append(inp.data) or f(inp, training, **kw))
        block.forward([x], True)
        # every layer, the first included, reads a view of one buffer that
        # holds a copy of x first
        assert not np.shares_memory(seen[0], x.data)
        assert seen[0].base is not None
        assert seen[0].base is seen[1].base is seen[2].base
        assert seen[2].shape == (2, 2 + 2 * 3, 8, 6)
        np.testing.assert_array_equal(seen[2][:, :2], x.data)
        np.testing.assert_array_equal(seen[0], seen[2][:, :2])
        np.testing.assert_array_equal(seen[1], seen[2][:, :5])

    def test_finite_difference_gradients(self):
        store = ParamStore()
        block = DenseBlock(store, "b", 2, 2, 3, (3, 3), rng(25), np.float64)
        gen = np.random.default_rng(26)
        x = Tensor(gen.normal(size=(2, 2, 4, 4)), requires_grad=True)
        proj = gen.normal(size=(2, 2, 4, 4))

        def loss():
            return (block.forward([x], True) * proj).sum()

        names = ["b.layer1.conv.weight", "b.layer2.bn.gamma", "b.layer0.bn.beta"]
        T.assert_gradients_match(loss, [x] + [store.params[n] for n in names],
                                 rtol=1e-3, atol=1e-6, names=["x"] + names)


class TestMultiScaleBranch:
    def test_output_back_at_input_resolution(self):
        cfg = tiny_cfg()
        store = ParamStore()
        branch = MultiScaleBranch(store, "br", 1, cfg, (3, 3), rng(4), np.float64)
        x = Tensor(np.random.default_rng(4).normal(size=(1, 1, 16, 12)))
        out = branch.forward(x, False)
        assert out.shape == (1, cfg.growth_rate, 16, 12)

    def test_rectangular_kernels_accepted(self):
        cfg = tiny_cfg()
        for kernel in ((13, 1), (1, 13)):
            branch = MultiScaleBranch(ParamStore(), "br", 1, cfg, kernel, rng(5), np.float64)
            x = Tensor(np.random.default_rng(5).normal(size=(1, 1, 16, 16)))
            assert branch.forward(x, False).shape == (1, 2, 16, 16)

    def test_finite_difference_gradients(self):
        cfg = NetworkConfig(growth_rate=2, layers_per_block=1, depth=2,
                            final_block_layers=1)
        store = ParamStore()
        branch = MultiScaleBranch(store, "br", 1, cfg, (3, 3), rng(6), np.float64)
        x = Tensor(np.random.default_rng(6).normal(size=(1, 1, 8, 8)), requires_grad=True)

        def loss():
            out = branch.forward(x, True)
            return (out * out).sum()

        checked = [x, store.params["br.enc0.layer0.conv.weight"],
                   store.params["br.mid.layer0.bn.gamma"],
                   store.params["br.up0.weight"],
                   store.params["br.dec0.layer0.conv.bias"]]
        T.assert_gradients_match(loss, checked, rtol=1e-3, atol=1e-6,
                                 names=["x", "enc.w", "mid.gamma", "up.w", "dec.b"])


class TestMaskSeparator:
    def test_mask_pair_shapes_and_range(self):
        model = MaskSeparator(tiny_cfg(), seed=1)
        x = np.abs(np.random.default_rng(7).normal(size=(1, 16, 16)))
        mp, mh = model.forward(x)
        assert mp.shape == (1, 16, 16) and mh.shape == (1, 16, 16)
        for m in (mp, mh):
            assert np.all(m.data > 0.0) and np.all(m.data < 1.0)

    def test_batched_matches_single_in_infer_mode(self):
        model = MaskSeparator(tiny_cfg(), seed=2)
        batch = np.random.default_rng(8).normal(size=(3, 1, 16, 16))
        bp, bh = model.forward(batch, training=False)
        for i in range(3):
            sp, sh = model.forward(batch[i], training=False)
            np.testing.assert_allclose(bp.data[i], sp.data, atol=1e-12)
            np.testing.assert_allclose(bh.data[i], sh.data, atol=1e-12)

    def test_heads_are_independent(self):
        model = MaskSeparator(tiny_cfg(), seed=3)
        x = np.random.default_rng(9).normal(size=(1, 16, 16))
        mp, mh = model.forward(x)
        assert not np.allclose(mp.data, mh.data)
        assert not np.allclose(mp.data + mh.data, 1.0)

    def test_indivisible_input_rejected(self):
        model = MaskSeparator(tiny_cfg(), seed=0)
        with pytest.raises(ValueError, match="divisible"):
            model.forward(np.zeros((1, 15, 16)))

    def test_lone_patch_matches_batch_of_one_in_infer_mode(self):
        model = MaskSeparator(tiny_cfg(), seed=2)
        x = np.random.default_rng(8).normal(size=(1, 16, 16))
        lone = model.forward(x, training=False)
        batched = model.forward(x[None], training=False)
        for got, want in zip(lone, batched):
            assert got.shape == (1, 16, 16) and want.shape == (1, 1, 16, 16)
            assert got.data.tobytes() == want.data[0].tobytes()

    def test_training_refuses_a_lone_patch(self):
        model = MaskSeparator(tiny_cfg(), seed=0)
        with pytest.raises(ValueError, match=r"expected \(N, 1, H, W\) patches"):
            model.forward(np.zeros((1, 16, 16)), training=True)

    def test_wrong_channel_count_rejected(self):
        model = MaskSeparator(tiny_cfg(), seed=0)
        with pytest.raises(ValueError, match="channel"):
            model.forward(np.zeros((2, 16, 16)))

    @pytest.mark.parametrize("training", [True, False], ids=["train", "infer"])
    def test_input_of_another_dtype_rejected(self, training):
        model = MaskSeparator(tiny_cfg(), seed=0)
        x = np.zeros((1, 1, 16, 16), dtype=np.float32)
        with pytest.raises(ValueError, match="input is float32, the model is float64"):
            model.forward(x, training=training)

    def test_float32_model_keeps_float32(self):
        model = MaskSeparator(tiny_cfg(), seed=5, dtype=np.float32)
        x = np.abs(np.random.default_rng(11).normal(size=(2, 1, 16, 16))).astype(np.float32)
        for m in model.forward(x, training=False):
            assert m.dtype == np.float32
        mp, mh = model.forward(x, training=True)
        assert mp.dtype == mh.dtype == np.float32
        (mp * mh).sum().backward()
        for name, p in model.store.params.items():
            assert p.grad is not None and p.grad.dtype == np.float32, name

    @pytest.mark.parametrize("dtype", [np.float16, np.int32, np.complex128])
    def test_model_of_another_dtype_rejected(self, dtype):
        # a float16 model would build float64 weights and refuse every input
        with pytest.raises(ValueError, match="the model's dtype must be float32 or float64, "
                                             f"got {np.dtype(dtype)}"):
            MaskSeparator(tiny_cfg(), seed=0, dtype=dtype)

    # what ``hpsep separate`` relies on: a float64 checkpoint loaded in
    # float32 gives the float64 masks of a full default tile to 1.1e-6 here
    FLOAT32_MASK_ATOL = 1e-5

    def test_float32_masks_of_one_checkpoint_match_float64(self, tmp_path):
        model = MaskSeparator(NetworkConfig(), seed=37)
        randomize_bn(model.store, 37)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, model.cfg, GlobalStats(0.0, 1.0), model.store)
        x = np.random.default_rng(37).random((1, 512, 128))
        want = load_checkpoint(path)[0].forward(x, training=False)
        got = load_checkpoint(path, dtype=np.float32)[0].forward(
            x.astype(np.float32), training=False)
        for g, w in zip(got, want):
            assert g.dtype == np.float32 and g.shape == w.shape == (1, 512, 128)
            np.testing.assert_allclose(g.data, w.data, rtol=0.0, atol=self.FLOAT32_MASK_ATOL)

    @pytest.mark.parametrize("branch_index", [0, 1, 2])
    def test_every_branch_influences_the_masks(self, branch_index):
        model = MaskSeparator(tiny_cfg(), seed=4)
        x = np.random.default_rng(10).normal(size=(1, 16, 16))
        base_p, base_h = model.forward(x)
        bias = model.store.params[f"branch{branch_index}.dec0.layer1.conv.bias"]
        bias.data = bias.data + 5.0
        new_p, new_h = model.forward(x)
        assert not np.allclose(base_p.data, new_p.data)
        assert not np.allclose(base_h.data, new_h.data)

    def test_construction_is_deterministic_in_seed(self):
        a = MaskSeparator(tiny_cfg(), seed=11)
        b = MaskSeparator(tiny_cfg(), seed=11)
        c = MaskSeparator(tiny_cfg(), seed=12)
        for name in a.store.params:
            np.testing.assert_array_equal(a.store.params[name].data,
                                          b.store.params[name].data)
        assert any(
            not np.array_equal(a.store.params[n].data, c.store.params[n].data)
            for n in a.store.params
        )

    def test_default_parameter_budget_frozen(self):
        model = MaskSeparator()
        n = param_count(model.store)
        assert n == FROZEN_DEFAULT_PARAMS
        assert 550_000 <= n <= 610_000

    def test_three_branches_with_documented_kernels(self):
        model = MaskSeparator(tiny_cfg(), seed=0)
        assert len(model.branches) == 3
        assert model.cfg.branch_kernels == BRANCH_KERNELS
        shapes = [
            model.store.params[f"branch{i}.enc0.layer0.conv.weight"].shape[2:]
            for i in range(3)
        ]
        assert shapes == [(3, 3), (13, 1), (1, 13)]

    def test_registry_names_shapes_and_order_are_frozen(self):
        # checkpoints store records in registry order under these names, so
        # a refactor of the layers must leave this list as it is
        store = MaskSeparator(tiny_cfg(), seed=0).store
        listing = ([(n, t.shape) for n, t in store.params.items()]
                   + [(n, a.shape) for n, a in store.buffers.items()])
        assert len(listing) == 208
        assert listing[:4] == [("branch0.enc0.layer0.conv.weight", (2, 1, 3, 3)),
                               ("branch0.enc0.layer0.conv.bias", (2,)),
                               ("branch0.enc0.layer0.bn.gamma", (2,)),
                               ("branch0.enc0.layer0.bn.beta", (2,))]
        digest = hashlib.sha256(repr(listing).encode()).hexdigest()
        assert digest == "703d6ebb2d03bd098692b69e613484140f8345feabcec53e3d773502522cb7cb"

    def test_finite_difference_gradients_through_full_model(self):
        cfg = NetworkConfig(growth_rate=2, layers_per_block=1, depth=1,
                            final_block_layers=1)
        model = MaskSeparator(cfg, seed=5)
        x = np.abs(np.random.default_rng(11).normal(size=(1, 1, 4, 4)))
        target_p = np.random.default_rng(12).random((1, 1, 4, 4))
        target_h = np.random.default_rng(13).random((1, 1, 4, 4))

        def loss():
            mp, mh = model.forward(x, training=True)
            dp = mp - target_p
            dh = mh - target_h
            return (dp * dp).sum() + (dh * dh).sum()

        names = ["branch0.enc0.layer0.conv.weight", "branch1.mid.layer0.conv.bias",
                 "branch2.dec0.layer0.bn.gamma", "fuse.layer0.bn.beta",
                 "head_perc.weight", "head_harm.bias"]
        T.assert_gradients_match(loss, [model.store.params[n] for n in names],
                                 rtol=1e-3, atol=1e-6, names=names)

    def test_backward_reaches_every_parameter(self):
        model = MaskSeparator(tiny_cfg(), seed=6)
        x = np.abs(np.random.default_rng(14).normal(size=(1, 1, 16, 16)))
        mp, mh = model.forward(x, training=True)
        (mp.sum() + mh.sum()).backward()
        for name, p in model.store.params.items():
            assert p.grad is not None, f"no gradient reached {name}"


class TestSharedScratch:
    """Every graph a model records shares its normalized-map scratch.

    The second forward overwrites the scratch before the first graph is
    swept; each block's backward must restore its own maps first. Both
    ways of sweeping two live graphs must give the gradients and running
    statistics of two separate forward and backward steps, bit for bit.
    """

    @staticmethod
    def loss(model, x):
        mp, mh = model.forward(Tensor(x), training=True)
        return masking_loss(mp, mh, x, 0.3 * x, 0.7 * x)

    def state_after(self, sweep):
        model = MaskSeparator(tiny_cfg(growth_rate=3, layers_per_block=3,
                                       final_block_layers=3), seed=41)
        gen = np.random.default_rng(41)
        xs = [np.abs(gen.normal(size=(2, 1, 16, 16))) for _ in range(2)]
        sweep(lambda x: self.loss(model, x), xs)
        grads = {n: p.grad for n, p in model.store.params.items()}
        return grads, model.store.buffers

    @staticmethod
    def separate_steps(loss, xs):
        for x in xs:
            loss(x).backward()

    @staticmethod
    def swept_in_turn(loss, xs):
        for graph in [loss(x) for x in xs]:
            graph.backward()

    @staticmethod
    def swept_as_one(loss, xs):
        first, second = (loss(x) for x in xs)
        (first + second).backward()

    @pytest.mark.parametrize("sweep", ["swept_in_turn", "swept_as_one"])
    def test_two_live_graphs_match_separate_steps(self, sweep):
        want_grads, want_stats = self.state_after(self.separate_steps)
        got_grads, got_stats = self.state_after(getattr(self, sweep))
        assert got_grads.keys() == want_grads.keys()
        for name in want_grads:
            np.testing.assert_array_equal(got_grads[name], want_grads[name], err_msg=name)
        for name in want_stats:
            np.testing.assert_array_equal(got_stats[name], want_stats[name], err_msg=name)


class TestNetworkConfig:
    def test_rejects_nonpositive_sizes(self):
        with pytest.raises(ValueError):
            NetworkConfig(growth_rate=0)
        with pytest.raises(ValueError):
            NetworkConfig(depth=0)

    def test_rejects_even_kernels(self):
        with pytest.raises(ValueError, match="odd"):
            NetworkConfig(branch_kernels=((2, 3),))

    def test_rejects_an_empty_kernel_set(self):
        # MaskSeparator would otherwise fail on it with ZeroDivisionError
        with pytest.raises(ValueError, match="branch_kernels must hold at least one kernel"):
            NetworkConfig(branch_kernels=())

    @pytest.mark.parametrize("kernel", [(3, -1), (-3, 3)])
    def test_rejects_negative_kernel_dims(self, kernel):
        # -1 % 2 == 1, so oddness alone would pass them
        with pytest.raises(ValueError, match="branch_kernels must have positive odd dims"):
            NetworkConfig(branch_kernels=(kernel,))

    @pytest.mark.parametrize("depth", [8, 9, 2**32 - 1])
    def test_rejects_depth_too_deep_for_the_tile(self, depth):
        # 2 ** 7 = 128 divides the 512x128 tile; 2 ** 8 does not
        assert NetworkConfig(depth=7).depth == 7
        with pytest.raises(ValueError, match=f"depth {depth} is too deep for the 512x128 tile"):
            NetworkConfig(depth=depth)


def _record(name, array):
    """One float64 checkpoint record."""
    raw = name.encode("utf-8")
    return (struct.pack("<H", len(raw)) + raw + struct.pack("<BB", 1, array.ndim)
            + struct.pack(f"<{array.ndim}I", *array.shape) + array.astype("<f8").tobytes())


def _with_u32(blob, offset, value):
    return blob[:offset] + struct.pack("<I", value) + blob[offset + 4 :]


def _with_first_value(blob, name, value):
    """``blob`` with the first value of the rank-1 float64 record ``name`` set."""
    at = blob.index(name.encode("utf-8")) + len(name) + 6  # u8 tag, u8 rank, u32 dim
    return blob[:at] + struct.pack("<d", value) + blob[at + 8 :]


HEADER = conftest.checkpoint_header(len(BRANCH_KERNELS))  # of a three-branch model
_FIRST = "branch0.enc0.layer0.conv.weight"  # the first record of a default model


def _first_record_reshaped(blob, shape):
    old = len(_record(_FIRST, np.zeros((10, 1, 3, 3))))
    at = HEADER["end"]
    assert blob[at + 2 : at + 2 + len(_FIRST)] == _FIRST.encode()
    return blob[:at] + _record(_FIRST, np.zeros(shape)) + blob[at + old :]


def _with_kernels(blob, kernels):
    """A default-config ``blob`` whose header names ``kernels`` as its branch kernels."""
    dims = [d for kernel in kernels for d in kernel]
    return (blob[: HEADER["branch_count"]]
            + struct.pack(f"<H{len(dims)}I", len(kernels), *dims)
            + blob[HEADER["stat_min"] :])


_HUGE = 2**32 - 1  # the largest u32 a header field can hold

# Each turns a default-config checkpoint into a file whose header or
# records ask for far more memory than the file holds.
HOSTILE = {
    # refused by NetworkConfig before the record is read
    "depth-400": lambda blob: _with_u32(blob, HEADER["depth"], 400)
    + _record("branch0.enc399.layer0.conv.weight", np.zeros((10, 1, 3, 3))),
    "layers-40": lambda blob: _with_u32(blob, HEADER["layers_per_block"], 40)
    + _record("branch0.enc0.layer39.conv.weight", np.zeros((10, 1, 3, 3))),
    "kernel-1x2001": lambda blob: _first_record_reshaped(blob, (10, 1, 1, 2001)),
    # a record claiming 16 GiB of payload with none behind it
    "dims-beyond-file": lambda blob: blob + _record("zz", np.zeros((1, 1)))[:-16]
    + struct.pack("<II", 65536, 32768),
    # header fields alone, with the default model's records behind them
    "header-growth-huge": lambda blob: _with_u32(blob, HEADER["growth_rate"], _HUGE),
    "header-layers-huge": lambda blob: _with_u32(blob, HEADER["layers_per_block"], _HUGE),
    "header-final-layers-huge":
        lambda blob: _with_u32(blob, HEADER["final_block_layers"], _HUGE),
    "header-branches-65535": lambda blob: _with_kernels(blob, [(3, 3)] * 65535),
    "header-branches-0": lambda blob: _with_kernels(blob, []),
    "header-kernel-huge": lambda blob: _with_kernels(blob, [(_HUGE, _HUGE), *BRANCH_KERNELS[1:]]),
    "header-kernel-1x2001": lambda blob: _with_kernels(blob, [(1, 2001), *BRANCH_KERNELS[1:]]),
}


def _one_value_records(count):
    """``count`` float32 records of one value under three-character names, 11 bytes each."""
    names = itertools.product((string.ascii_letters + string.digits).encode(), repeat=3)
    return b"".join(struct.pack("<H3sBBf", 3, bytes(name), 0, 0, 0.0)
                    for name in itertools.islice(names, count))


# Each turns a tiny model's checkpoint into a file that would be costly per
# byte to read whole: the records a file of its size can hold, or the kernel
# tuples its header can name, take many bytes of Python objects each. Each
# comes with the bound, in multiples of the file's size, that a load must
# fail within: the loader refuses the first byte after the last record
# without reading on, but makes every kernel tuple the header names.
DENSE_HOSTILE = {
    "records-50000-one-value": (lambda blob: blob + _one_value_records(50_000), 1),
    "header-branches-65535-huge":
        (lambda blob: _with_kernels(blob, [(_HUGE, _HUGE)] * 65535), 25),
}


def _split_records(blob, n_branches=len(BRANCH_KERNELS)):
    """A checkpoint's header bytes and its records as (name, bytes) pairs, in file order."""
    at = conftest.checkpoint_header(n_branches)["end"]
    header, records = blob[:at], []
    while at < len(blob):
        (name_len,) = struct.unpack_from("<H", blob, at)
        name = blob[at + 2 : at + 2 + name_len].decode()
        tag, rank = struct.unpack_from("<BB", blob, at + 2 + name_len)
        dims = struct.unpack_from(f"<{rank}I", blob, at + 4 + name_len)
        end = at + 4 + name_len + 4 * rank + math.prod(dims) * (4 if tag == 0 else 8)
        records.append((name, blob[at:end]))
        at = end
    return header, records


@pytest.fixture(scope="module")
def default_checkpoint(tmp_path_factory):
    model = MaskSeparator(NetworkConfig(), seed=0)
    path = tmp_path_factory.mktemp("default") / "model.ckpt"
    save_checkpoint(path, model.cfg, GlobalStats(0.0, 1.0), model.store)
    return path.read_bytes()


class TestCheckpoint:
    def roundtrip_model(self, tmp_path):
        model = MaskSeparator(tiny_cfg(growth_rate=3), seed=21)
        # push the running stats away from their init so buffers are exercised
        x = np.abs(np.random.default_rng(21).normal(size=(2, 1, 16, 16)))
        model.forward(x, training=True)
        stats = GlobalStats(min_val=0.125, max_val=7.75)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, model.cfg, stats, model.store)
        return model, stats, path

    def test_roundtrip_bit_exact(self, tmp_path):
        model, stats, path = self.roundtrip_model(tmp_path)
        loaded, loaded_stats = load_checkpoint(path)
        assert loaded_stats == stats
        assert loaded.cfg == model.cfg
        for name in model.store.params:
            np.testing.assert_array_equal(loaded.store.params[name].data,
                                          model.store.params[name].data)
        for name in model.store.buffers:
            np.testing.assert_array_equal(loaded.store.buffers[name],
                                          model.store.buffers[name])

    def test_roundtrip_preserves_predictions(self, tmp_path):
        model, _, path = self.roundtrip_model(tmp_path)
        loaded, _ = load_checkpoint(path)
        x = np.abs(np.random.default_rng(22).normal(size=(1, 1, 16, 16)))
        mp0, mh0 = model.forward(x)
        mp1, mh1 = loaded.forward(x)
        np.testing.assert_array_equal(mp0.data, mp1.data)
        np.testing.assert_array_equal(mh0.data, mh1.data)

    def assert_roundtrip(self, tmp_path, cfg, seed):
        """Saving and loading a model of ``cfg`` rebuilds ``cfg`` and its masks."""
        model = MaskSeparator(cfg, seed=seed)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, cfg, GlobalStats(0.0, 1.0), model.store)
        loaded, _ = load_checkpoint(path)
        assert loaded.cfg == cfg
        x = np.abs(np.random.default_rng(seed).normal(size=(1, 1, 16, 16)))
        for want, got in zip(model.forward(x), loaded.forward(x)):
            np.testing.assert_array_equal(got.data, want.data)

    def test_roundtrip_non_default_branch_kernels(self, tmp_path):
        self.assert_roundtrip(tmp_path, tiny_cfg(branch_kernels=((3, 3), (5, 1))), seed=23)

    # the header alone makes the config: no kernel is read off a record
    @pytest.mark.parametrize("cfg", [
        NetworkConfig(),
        tiny_cfg(branch_kernels=((3, 3),)),
        tiny_cfg(branch_kernels=((5, 1), (1, 7))),
    ], ids=["default", "one-branch", "5x1-1x7"])
    def test_roundtrip_rebuilds_the_config_from_the_header(self, tmp_path, cfg):
        self.assert_roundtrip(tmp_path, cfg, seed=28)

    def test_rejects_malformed_branch_weight(self, tmp_path):
        model = MaskSeparator(tiny_cfg(), seed=24)
        weight = model.store.params["branch1.enc0.layer0.conv.weight"]
        weight.data = weight.data.reshape(weight.shape[0], -1)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, model.cfg, GlobalStats(0.0, 1.0), model.store)
        with pytest.raises(ValueError,
                           match="shape mismatch for 'branch1.enc0.layer0.conv.weight'"):
            load_checkpoint(path)

    def test_rejects_checkpoint_without_branches(self, tmp_path):
        model = MaskSeparator(tiny_cfg(), seed=25)
        for name in [n for n in model.store.params if n.startswith("branch")]:
            del model.store.params[name]
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, model.cfg, GlobalStats(0.0, 1.0), model.store)
        with pytest.raises(ValueError, match="checkpoint mismatch: record 'fuse.layer0.conv.weight' "
                                             "where 'branch0.enc0.layer0.conv.weight' belongs"):
            load_checkpoint(path)

    def test_rejects_wrong_magic(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"JUNKxxxxxxxx")
        with pytest.raises(ValueError, match="not a separator checkpoint"):
            load_checkpoint(path)

    def test_rejects_unknown_version(self, tmp_path):
        _, _, path = self.roundtrip_model(tmp_path)
        blob = bytearray(path.read_bytes())
        blob[4:6] = (99).to_bytes(2, "little")
        path.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match="version"):
            load_checkpoint(path)

    def test_rejects_a_version_1_file(self, tmp_path):
        _, _, path = self.roundtrip_model(tmp_path)
        blob = path.read_bytes()
        # version 1: the four sizes, then f64 LeakyReLU slope, min and max
        v1 = (blob[:4] + struct.pack("<H", 1) + blob[HEADER["growth_rate"] : HEADER["branch_count"]]
              + struct.pack("<ddd", 0.01, 0.125, 7.75) + blob[HEADER["end"] :])
        path.write_bytes(v1)
        with pytest.raises(ValueError, match="unsupported checkpoint version 1"):
            load_checkpoint(path)

    # the model built from the header fails on the first record it does not find
    REFUSED_BY = {
        "growth_rate": "shape mismatch for 'branch0.enc0.layer0.conv.weight'",
        "layers_per_block":
            "record 'branch0.enc1.layer0.conv.weight' where 'branch0.enc0.layer2.conv.weight'",
        "depth": "record 'branch0.mid.layer0.conv.weight' where 'branch0.enc2.layer0.conv.weight'",
        "final_block_layers": "record 'head_perc.weight' where 'fuse.layer2.conv.weight'",
    }

    @pytest.mark.parametrize("offset, key, value", [
        (HEADER["growth_rate"], "growth_rate", 200_000),  # would size a multi-TiB weight
        (HEADER["layers_per_block"], "layers_per_block", 3),
        (HEADER["depth"], "depth", 3),
        (HEADER["final_block_layers"], "final_block_layers", 3),
    ])
    def test_rejects_header_the_records_do_not_bear_out(self, tmp_path, offset, key,
                                                         value):
        _, _, path = self.roundtrip_model(tmp_path)
        path.write_bytes(_with_u32(path.read_bytes(), offset, value))
        with pytest.raises(ValueError, match=self.REFUSED_BY[key]):
            load_checkpoint(path)

    def test_rejects_record_the_model_does_not_make(self, tmp_path):
        _, _, path = self.roundtrip_model(tmp_path)
        header, records = _split_records(path.read_bytes())
        path.write_bytes(header + _record("zz.extra", np.zeros(2))
                         + b"".join(r for _, r in records))
        with pytest.raises(ValueError, match="checkpoint mismatch: record 'zz.extra' "
                                             "where 'branch0.enc0.layer0.conv.weight' belongs"):
            load_checkpoint(path)

    # each turns the records of a saved checkpoint into a file that is refused
    # at the record the model asked for, before that record's payload is read
    BROKEN_RECORDS = {
        # two buffers of one shape, told apart by name and order alone
        "swapped": (lambda rs: rs[:-2] + [rs[-1], rs[-2]],
                    "checkpoint mismatch: record 'fuse.layer1.bn.running_var' "
                    "where 'fuse.layer1.bn.running_mean' belongs"),
        "duplicated": (lambda rs: rs[:1] + rs,
                       "checkpoint mismatch: record 'branch0.enc0.layer0.conv.weight' "
                       "where 'branch0.enc0.layer0.conv.bias' belongs"),
        "missing-last-buffer": (lambda rs: rs[:-1],
                                "truncated checkpoint while reading "
                                "record 'fuse.layer1.bn.running_var'"),
        "one-trailing-byte": (lambda rs: rs + [("", b"\0")],
                              "checkpoint has data after its last record"),
    }

    @pytest.mark.parametrize("case", sorted(BROKEN_RECORDS))
    def test_rejects_records_out_of_registry_order(self, tmp_path, case):
        _, _, path = self.roundtrip_model(tmp_path)
        header, records = _split_records(path.read_bytes())
        assert [name for name, _ in records[-2:]] == ["fuse.layer1.bn.running_mean",
                                                      "fuse.layer1.bn.running_var"]
        change, message = self.BROKEN_RECORDS[case]
        path.write_bytes(header + b"".join(r for _, r in change(records)))
        with pytest.raises(ValueError, match=message):
            load_checkpoint(path)

    @pytest.mark.parametrize("offset, value", [(HEADER["stat_min"], -np.inf),
                                               (HEADER["stat_max"], np.inf),
                                               (HEADER["stat_max"], np.nan)])
    def test_rejects_non_finite_stats(self, tmp_path, offset, value):
        _, _, path = self.roundtrip_model(tmp_path)
        blob = bytearray(path.read_bytes())
        blob[offset : offset + 8] = struct.pack("<d", value)
        path.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match="non-finite normalization stats"):
            load_checkpoint(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_rejects_non_finite_record_by_name(self, tmp_path, value):
        model = MaskSeparator(tiny_cfg(), seed=26)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, model.cfg, GlobalStats(0.0, 1.0), model.store)
        # save_checkpoint refuses such state, so the bytes are set on disk
        path.write_bytes(_with_first_value(path.read_bytes(), "head_perc.bias", value))
        with pytest.raises(ValueError, match="'head_perc.bias' holds non-finite"):
            load_checkpoint(path)

    def test_integer_dtype_is_refused_before_any_record_is_read(self, tmp_path):
        _, _, path = self.roundtrip_model(tmp_path)
        header, _ = _split_records(path.read_bytes())
        path.write_bytes(header)  # a record read would fail as truncated
        with pytest.raises(ValueError, match="float32 or float64, got int32"):
            load_checkpoint(path, dtype=np.int32)

    def test_record_that_overflows_the_dtype_is_refused_by_name(self, tmp_path):
        model = MaskSeparator(tiny_cfg(), seed=27)
        model.store.params["head_harm.bias"].data[0] = 1e39  # finite, past float32's max
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, model.cfg, GlobalStats(0.0, 1.0), model.store)
        with pytest.raises(ValueError, match="record 'head_harm.bias' overflows float32"):
            load_checkpoint(path, dtype=np.float32)
        loaded, _ = load_checkpoint(path)
        assert loaded.store.params["head_harm.bias"].data[0] == 1e39

    @pytest.mark.parametrize("name, value", [("head_perc.bias", np.nan),
                                             ("branch0.enc0.layer0.bn.running_var", np.inf)])
    def test_save_refuses_non_finite_record_by_name(self, tmp_path, name, value):
        model, stats, path = self.roundtrip_model(tmp_path)
        before = path.read_bytes()
        arrays = {n: t.data for n, t in model.store.params.items()} | model.store.buffers
        arrays[name].flat[0] = value
        with pytest.raises(ValueError, match=f"record '{name}' holds non-finite values"):
            save_checkpoint(path, model.cfg, stats, model.store)
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == [path.name]

    def test_save_refuses_non_finite_stats(self, tmp_path):
        model, _, path = self.roundtrip_model(tmp_path)
        before = path.read_bytes()
        with pytest.raises(ValueError, match="non-finite normalization stats: min=0.0, max=inf"):
            save_checkpoint(path, model.cfg, GlobalStats(0.0, np.inf), model.store)
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == [path.name]

    @pytest.mark.parametrize("case", sorted(HOSTILE))
    def test_hostile_file_fails_within_its_size(self, default_checkpoint, tmp_path, case):
        blob = HOSTILE[case](default_checkpoint)
        path = tmp_path / "hostile.ckpt"
        path.write_bytes(blob)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError):
                load_checkpoint(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * len(blob)

    @pytest.mark.parametrize("case", sorted(DENSE_HOSTILE))
    def test_dense_hostile_file_fails_within_the_documented_factor(self, tmp_path, case):
        # load_checkpoint's docstring: one record at a time, and under 25
        # times the file's size for a header naming 65535 kernels
        make, bound = DENSE_HOSTILE[case]
        model = MaskSeparator(tiny_cfg(growth_rate=1, layers_per_block=1, depth=1,
                                       final_block_layers=1), seed=0)
        path = tmp_path / "hostile.ckpt"
        save_checkpoint(path, model.cfg, GlobalStats(0.0, 1.0), model.store)
        blob = make(path.read_bytes())
        path.write_bytes(blob)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError):
                load_checkpoint(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound * len(blob), peak / len(blob)

    def test_failed_write_keeps_previous_checkpoint(self, tmp_path):
        model, stats, path = self.roundtrip_model(tmp_path)
        before = path.read_bytes()
        for t in model.store.params.values():
            t.data += 1.0  # a later training state
        # an unserializable buffer dtype raises after the parameters are written
        model.store.buffers["zz.bad"] = np.zeros(3, dtype=np.int64)
        with pytest.raises(ValueError, match="cannot serialize"):
            save_checkpoint(path, model.cfg, stats, model.store)
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == [path.name]

    def test_rejects_truncation(self, tmp_path):
        _, _, path = self.roundtrip_model(tmp_path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) - 7])
        with pytest.raises(ValueError, match="truncated"):
            load_checkpoint(path)
