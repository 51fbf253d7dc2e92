"""Architecture bookkeeping, gradient flow, and checkpoint format tests."""

import struct
import tracemalloc

import numpy as np
import pytest

from hpsep import tensor as T
from hpsep.dsp import GlobalStats
from hpsep.network import (
    BRANCH_KERNELS,
    CompositeLayer,
    DenseBlock,
    MaskSeparator,
    MultiScaleBranch,
    NetworkConfig,
    ParamStore,
    load_checkpoint,
    param_count,
    save_checkpoint,
)
from hpsep.tensor import Tensor

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
        w = np.arange(6.0).reshape(2, 3)
        store = ParamStore({"w": w, "b": np.zeros(2), "mean": np.full(2, 7.0),
                            "left": np.zeros(1)})

        def init(shape):
            raise AssertionError("init must not run for a stored parameter")

        np.testing.assert_array_equal(store.make_param("w", (2, 3), init).data, w)
        running = store.add_buffer("mean", np.zeros(2))
        np.testing.assert_array_equal(running, [7.0, 7.0])
        with pytest.raises(ValueError, match=r"shape mismatch for 'b': stored \(2,\)"):
            store.make_param("b", (3,), init)
        with pytest.raises(ValueError, match="no record 'c'"):
            store.make_param("c", (1,), init)
        assert list(store.records) == ["left"]


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
                           np.float64, activation=activation, alpha=0.2)
        gen = np.random.default_rng(22)
        parts = [Tensor(gen.normal(size=shape), requires_grad=True) for shape in shapes]
        out = forward(block, parts, training)
        (out * gen.normal(size=out.shape)).sum().backward()
        grads = {n: p.grad for n, p in store.params.items()}
        return out.data, [p.grad for p in parts], grads, store.buffers

    # batch 2 makes every prefix view non-contiguous across the batch axis;
    # two parts are a decoder block's upsampled map and encoder skip
    @pytest.mark.parametrize("shapes", [
        [(2, 2, 8, 6)], [(2, 8, 6)], [(2, 2, 8, 6), (2, 3, 8, 6)], [(2, 8, 6), (3, 8, 6)],
    ], ids=["4d", "3d", "4d-two-parts", "3d-two-parts"])
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
            layer.forward = lambda inp, training, out=None, f=forward: (
                seen.append(inp.data) or f(inp, training, out=out))
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

    def test_wrong_channel_count_rejected(self):
        model = MaskSeparator(tiny_cfg(), seed=0)
        with pytest.raises(ValueError, match="channel"):
            model.forward(np.zeros((2, 16, 16)))

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


class TestNetworkConfig:
    def test_rejects_nonpositive_sizes(self):
        with pytest.raises(ValueError):
            NetworkConfig(growth_rate=0)
        with pytest.raises(ValueError):
            NetworkConfig(depth=0)

    def test_rejects_bad_alpha(self):
        with pytest.raises(ValueError):
            NetworkConfig(leaky_alpha=1.0)
        with pytest.raises(ValueError):
            NetworkConfig(leaky_alpha=-0.1)

    def test_rejects_even_kernels(self):
        with pytest.raises(ValueError, match="odd"):
            NetworkConfig(branch_kernels=((2, 3),))


def _record(name, array):
    """One float64 checkpoint record."""
    raw = name.encode("utf-8")
    return (struct.pack("<H", len(raw)) + raw + struct.pack("<BB", 1, array.ndim)
            + struct.pack(f"<{array.ndim}I", *array.shape) + array.astype("<f8").tobytes())


def _with_u32(blob, offset, value):
    return blob[:offset] + struct.pack("<I", value) + blob[offset + 4 :]


_HEADER_BYTES = 46  # magic, u16 version, four u32 sizes, three f64
_FIRST = "branch0.enc0.layer0.conv.weight"  # the first record of a default model


def _first_record_reshaped(blob, shape):
    old = len(_record(_FIRST, np.zeros((10, 1, 3, 3))))
    assert blob[_HEADER_BYTES + 2 : _HEADER_BYTES + 2 + len(_FIRST)] == _FIRST.encode()
    return blob[:_HEADER_BYTES] + _record(_FIRST, np.zeros(shape)) + blob[_HEADER_BYTES + old :]


# Each turns a default-config checkpoint into a file whose header or
# records ask for far more memory than the file holds.
HOSTILE = {
    "depth-400": lambda blob: _with_u32(blob, 14, 400)
    + _record("branch0.enc399.layer0.conv.weight", np.zeros((10, 1, 3, 3))),
    "layers-40": lambda blob: _with_u32(blob, 10, 40)
    + _record("branch0.enc0.layer39.conv.weight", np.zeros((10, 1, 3, 3))),
    "kernel-1x2001": lambda blob: _first_record_reshaped(blob, (10, 1, 1, 2001)),
    # a record claiming 16 GiB of payload with none behind it
    "dims-beyond-file": lambda blob: blob + _record("zz", np.zeros((1, 1)))[:-16]
    + struct.pack("<II", 65536, 32768),
}


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

    def test_roundtrip_non_default_branch_kernels(self, tmp_path):
        model = MaskSeparator(tiny_cfg(branch_kernels=((3, 3), (5, 1))), seed=23)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, model.cfg, GlobalStats(0.0, 1.0), model.store)
        loaded, _ = load_checkpoint(path)
        assert loaded.cfg == model.cfg
        x = np.abs(np.random.default_rng(23).normal(size=(1, 1, 16, 16)))
        mp0, mh0 = model.forward(x)
        mp1, mh1 = loaded.forward(x)
        np.testing.assert_array_equal(mp0.data, mp1.data)
        np.testing.assert_array_equal(mh0.data, mh1.data)

    def test_rejects_malformed_branch_weight(self, tmp_path):
        model = MaskSeparator(tiny_cfg(), seed=24)
        weight = model.store.params["branch1.enc0.layer0.conv.weight"]
        weight.data = weight.data.reshape(weight.shape[0], -1)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, model.cfg, GlobalStats(0.0, 1.0), model.store)
        with pytest.raises(ValueError, match="branch1 conv weight has rank 2"):
            load_checkpoint(path)

    def test_rejects_checkpoint_without_branches(self, tmp_path):
        model = MaskSeparator(tiny_cfg(), seed=25)
        for name in [n for n in model.store.params if n.startswith("branch")]:
            del model.store.params[name]
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, model.cfg, GlobalStats(0.0, 1.0), model.store)
        with pytest.raises(ValueError, match="no branch"):
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

    # header integers sit after the 4-byte magic and the u16 version
    @pytest.mark.parametrize("offset, key, value", [
        (6, "growth_rate", 200_000),  # would size a multi-TiB weight
        (10, "layers_per_block", 3),
        (14, "depth", 3),
        (18, "final_block_layers", 3),
    ])
    def test_rejects_header_the_records_do_not_bear_out(self, tmp_path, offset, key,
                                                         value):
        _, _, path = self.roundtrip_model(tmp_path)
        blob = bytearray(path.read_bytes())
        blob[offset : offset + 4] = value.to_bytes(4, "little")
        path.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match=f"header {key} {value}"):
            load_checkpoint(path)

    def test_rejects_record_the_model_does_not_make(self, tmp_path):
        _, _, path = self.roundtrip_model(tmp_path)
        with open(path, "ab") as fh:
            fh.write(_record("zz.extra", np.zeros(2)))
        with pytest.raises(ValueError, match=r"extra=\['zz.extra'\]"):
            load_checkpoint(path)

    # the f64 stats min and max follow the magic, version, sizes and alpha
    @pytest.mark.parametrize("offset, value", [(30, -np.inf), (38, np.inf), (38, np.nan)])
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
        model.store.params["head_perc.bias"].data[0] = value
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, model.cfg, GlobalStats(0.0, 1.0), model.store)
        with pytest.raises(ValueError, match="'head_perc.bias' holds non-finite"):
            load_checkpoint(path)

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
