import contextlib
import tracemalloc
import weakref
from collections import Counter

import numpy as np
import pytest

from hpsep import tensor as T
from hpsep.network import MaskSeparator, NetworkConfig
from hpsep.tensor import (
    RunningStats,
    Tensor,
    assert_gradients_match,
    batchnorm,
    batchnorm_act,
    concat_channels,
    concat_prefix,
    conv2d,
    leaky_relu,
    log1p,
    maxpool2,
    no_grad,
    numeric_gradient,
    recompute,
    relu,
    sigmoid,
    transposed_conv2,
)
from hpsep.training import masking_loss


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def tens(arr, grad=False):
    return Tensor(np.asarray(arr, dtype=np.float64), requires_grad=grad)


class TestArithmetic:
    def test_add_mul_values(self):
        a = tens([1.0, 2.0], grad=True)
        b = tens([3.0, 4.0], grad=True)
        out = (a + b) * b
        np.testing.assert_allclose(out.data, [12.0, 24.0])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            tens([1.0, 2.0]) + tens([[1.0], [2.0]])
        with pytest.raises(ValueError):
            tens([1.0, 2.0]) * tens([1.0, 2.0, 3.0])

    def test_sum_mean(self):
        a = tens([[1.0, 2.0], [3.0, 4.0]], grad=True)
        assert a.sum().item() == 10.0
        assert a.mean().item() == 2.5

    def test_backward_through_product(self):
        # d/dx sum(x * c) = c
        x = tens([1.0, -2.0, 3.0], grad=True)
        c = np.array([5.0, 7.0, -1.0])
        (x * c).sum().backward()
        np.testing.assert_allclose(x.grad, c)

    def test_square_via_self_product(self):
        x = tens([2.0, -3.0], grad=True)
        (x * x).sum().backward()
        np.testing.assert_allclose(x.grad, [4.0, -6.0])

    def test_backward_requires_scalar(self):
        x = tens([1.0, 2.0], grad=True)
        with pytest.raises(ValueError):
            (x * 2.0).backward()

    def test_repeated_backward_accumulates(self):
        # leaf gradients add up across sweeps of separately built graphs
        x = tens([1.0, 2.0], grad=True)
        (x * 3.0).sum().backward()
        (x * 3.0).sum().backward()
        np.testing.assert_allclose(x.grad, [6.0, 6.0])

    def test_no_grad_suppresses_graph(self):
        x = tens([1.0], grad=True)
        with no_grad():
            y = (x * 2.0).sum()
        assert y._node is None
        with pytest.raises(ValueError):
            y.backward()

    def test_reused_no_grad_restores_recording(self, monkeypatch):
        # entering one no_grad object twice, nested, raises at the second
        # entry; the first one's exit still turns recording back on (and
        # monkeypatch turns it on for the next test should that fail)
        monkeypatch.setattr(T, "_grad_enabled", True)
        x = tens([1.0], grad=True)
        ng = no_grad()
        with contextlib.suppress(Exception):
            with ng:
                with ng:
                    pass
        assert (x * 2.0)._node is not None

    def test_one_element_matrix_item_and_gradient_check(self):
        # backward takes any one-element output, and so do item() and the
        # finite-difference check that calls it
        x = tens([[2.0]], grad=True)
        assert (x * x).item() == 4.0
        assert_gradients_match(lambda: x * x, [x])

    def test_diamond_graph_single_visit(self):
        # z = a*a + a*a visits a's consumers once each; grad = 4a
        a = tens([3.0], grad=True)
        b = a * a
        z = (b + b).sum()
        z.backward()
        np.testing.assert_allclose(a.grad, [12.0])


class TestTapeConsumption:
    @staticmethod
    def graph():
        a = tens([[[1.0, -2.0]]], grad=True)
        b = tens([[[3.0, 4.0]]], grad=True)
        y = a * b
        z = relu(concat_channels([y, a + b]))
        return a, b, y, z

    def test_backward_frees_interior_nodes(self):
        a, b, y, z = self.graph()
        loss = z.sum()
        loss.backward()
        np.testing.assert_allclose(a.grad, [[[4.0, 1.0]]])
        np.testing.assert_allclose(b.grad, [[[2.0, 1.0]]])
        for t in (y, z, loss):
            assert t.grad is None
            assert t._node.parents == ()
            assert t._node.backward is None

    def test_second_backward_rejected(self):
        a, b, _, z = self.graph()
        loss = z.sum()
        loss.backward()
        ga, gb = a.grad.copy(), b.grad.copy()
        with pytest.raises(ValueError, match="consumed"):
            loss.backward()
        np.testing.assert_array_equal(a.grad, ga)
        np.testing.assert_array_equal(b.grad, gb)

    def test_consumed_interior_in_new_graph_rejected(self):
        a, b, y, z = self.graph()
        z.sum().backward()
        ga, gb = a.grad.copy(), b.grad.copy()
        # the leaves a and b sit on the new graph too; neither may move
        fresh = (y * b + a).sum()
        with pytest.raises(ValueError, match="consumed"):
            fresh.backward()
        np.testing.assert_array_equal(a.grad, ga)
        np.testing.assert_array_equal(b.grad, gb)


class TestSweepOrder:
    def test_vjps_run_in_reverse_recording_order(self):
        # b is recorded before c but is d's second input, so a depth-first
        # postorder over d's inputs would run b's VJP before c's
        calls = []

        def op(name, data, parents, vjp):
            def fn(g):
                calls.append(name)
                return vjp(g)
            return T._record(np.asarray(data), parents, fn, name)

        a = tens(2.0, grad=True)
        b = op("b", 2.0 * a.data, (a,), lambda g: (2.0 * g,))
        c = op("c", 3.0 * a.data, (a,), lambda g: (3.0 * g,))
        bd, cd = b.data, c.data
        d = op("d", cd * bd, (c, b), lambda g: (g * bd, g * cd))
        d.backward()
        assert calls == ["d", "c", "b"]
        np.testing.assert_allclose(a.grad, 24.0)  # d = 6 a^2


def graph_contents(root):
    """What the graph under ``root`` holds: (links, Tensors, arrays).

    links are the nodes' parent links, Tensors and arrays what their VJP
    closures capture; each array comes as (op tag of the node, array).
    """
    links, captured, arrays = [], [], []
    nodes, seen_nodes = [root._node], set()
    while nodes:
        node = nodes.pop()
        if id(node) in seen_nodes:
            continue
        seen_nodes.add(id(node))
        links.extend(node.parents)
        nodes.extend(p for p in node.parents if isinstance(p, T._Node))
        todo, seen = [node.backward], set()
        while todo:
            obj = todo.pop()
            if id(obj) in seen:
                continue
            seen.add(id(obj))
            if isinstance(obj, Tensor):
                captured.append(obj)
            elif isinstance(obj, np.ndarray):
                arrays.append((node.op, obj))
            elif callable(obj) and hasattr(obj, "__closure__"):
                todo.extend(c.cell_contents for c in obj.__closure__ or ())
            elif isinstance(obj, (tuple, list)):
                todo.extend(obj)
    return links, captured, arrays


def memory_owner(arr):
    """The array that owns the memory ``arr`` views."""
    while arr.base is not None:
        arr = arr.base
    return arr


class TestGraphHoldsNodes:
    def test_closures_capture_no_tensor_and_links_skip_interiors(self):
        # every op of a training step: the graph may reach only leaves as
        # Tensors, so each interior output is freed when its caller drops it
        cfg = NetworkConfig(growth_rate=2, layers_per_block=3, depth=1,
                            final_block_layers=2)
        model = MaskSeparator(cfg, seed=0)
        x = np.random.default_rng(0).random((2, 1, 8, 8))
        mp, mh = model.forward(Tensor(x), training=True)
        loss = log1p(masking_loss(mp, mh, x, 0.3 * x, 0.7 * x)) - (mp * mh).mean()
        links, captured, _ = graph_contents(loss)
        assert captured == []
        params = {id(t) for t in model.store.params.values()}
        leaves = [p for p in links if isinstance(p, Tensor)]
        assert {id(t) for t in leaves} == params
        assert all(p is None or isinstance(p, T._Node) for p in links
                   if not isinstance(p, Tensor))

    def test_training_graph_keeps_one_map_per_layer_and_no_mask(self):
        # Beyond the memory the conv and upsampling nodes read (the block
        # buffers and block outputs), a training forward's graph holds per
        # layer one float map, BN's normalized input, plus the two sigmoid
        # outputs; no activation keeps a mask of its own. Every layer of a
        # block but the last keeps that map in the model's one scratch (its
        # buffer slot holds a copy until backward), where the block's
        # recompute node restores it; the last layer keeps its own.
        cfg = NetworkConfig(growth_rate=2, layers_per_block=3, depth=1,
                            final_block_layers=2)
        model = MaskSeparator(cfg, seed=0)
        x = np.random.default_rng(0).random((2, 1, 8, 8))
        mp, mh = model.forward(Tensor(x), training=True)
        _, _, arrays = graph_contents(mp + mh)
        assert [(op, a.shape) for op, a in arrays if a.dtype == bool] == []
        buffers = {id(memory_owner(a)) for op, a in arrays
                   if op in ("conv2d", "transposed_conv2")}
        scratch = id(model.scratch.flat)
        beyond = Counter((op, id(memory_owner(a)) == scratch) for op, a in arrays
                         if a.ndim == 4 and a.dtype.kind == "f"
                         and id(memory_owner(a)) not in buffers)
        layers = 3 * (3 * 3) + 2  # three branches of three 3-layer blocks, the fusion block
        blocks = 3 * 3 + 1
        assert beyond == {("batchnorm_act", False): blocks,
                          ("batchnorm_act", True): layers - blocks,
                          ("recompute", True): blocks, ("sigmoid", False): 2}

    def test_interior_output_freed_when_dropped(self):
        x = Tensor(np.ones((1, 2, 4, 4)), requires_grad=True)
        h = conv2d(x, tens(np.ones((3, 2, 3, 3))), tens(np.zeros(3)))
        y = relu(batchnorm(h, tens(np.ones(3)), tens(np.zeros(3)), RunningStats(3), True))
        conv_out = weakref.ref(h.data)
        del h
        assert conv_out() is None  # batchnorm's VJP keeps xhat, not its input
        y.sum().backward()
        assert x.grad.shape == x.shape


FLOAT32_OPS = {
    # name: (input shapes, op on float32 leaves)
    "add": ([(3, 4), (3, 4)], lambda a, b: a + b),
    "add_const": ([(3, 4)], lambda a: a + 1.5),
    "radd_const": ([(3, 4)], lambda a: 1.5 + a),
    "sub": ([(3, 4), (3, 4)], lambda a, b: a - b),
    "sub_const": ([(3, 4)], lambda a: a - 0.1),
    "rsub_const": ([(3, 4)], lambda a: 0.1 - a),
    "neg": ([(3, 4)], lambda a: -a),
    "mul": ([(3, 4), (3, 4)], lambda a, b: a * b),
    "mul_const": ([(3, 4)], lambda a: a * 0.1),
    "mul_float64_array": ([(3, 4)], lambda a: a * np.full((3, 4), 0.1)),
    "sum": ([(3, 4)], lambda a: a.sum()),
    "mean": ([(3, 4)], lambda a: a.mean()),
    "conv2d": ([(2, 3, 4, 4), (2, 3, 3, 3), (2,)], conv2d),
    "transposed_conv2": ([(2, 3, 2, 2), (3, 2, 2, 2), (2,)], transposed_conv2),
    "maxpool2": ([(2, 3, 4, 4)], maxpool2),
    "batchnorm": ([(2, 3, 4, 4), (3,), (3,)], lambda x, g, b: batchnorm(
        x, g, b, RunningStats(3, dtype=np.float32), True)),
    "batchnorm_infer": ([(1, 3, 4, 4), (3,), (3,)], lambda x, g, b: batchnorm(
        x, g, b, RunningStats(3, dtype=np.float32), False)),
    "batchnorm_act": ([(2, 3, 4, 4), (3,), (3,)], lambda x, g, b: batchnorm_act(
        x, g, b, RunningStats(3, dtype=np.float32), 0.1)),
    "recompute": ([(3, 4)], lambda a: recompute(a, lambda: None)),
    "relu": ([(3, 4)], relu),
    "leaky_relu": ([(3, 4)], lambda a: leaky_relu(a, 0.1)),
    "sigmoid": ([(3, 4)], sigmoid),
    "log1p": ([(3, 4)], lambda a: log1p(a * a)),
    "concat_channels": ([(2, 2, 2), (1, 2, 2)], lambda a, b: concat_channels([a, b])),
    "concat_prefix": ([(2, 2, 2), (1, 2, 2)], lambda a, b: concat_prefix(
        [a, b], np.concatenate([a.data, b.data, a.data]))),
}


class TestFloat32:
    def test_every_public_op_listed(self):
        not_ops = {"Tensor", "RunningStats", "no_grad", "affine_act", "numeric_gradient",
                   "assert_gradients_match"}
        assert set(T.__all__) - not_ops <= set(FLOAT32_OPS)

    @pytest.mark.parametrize("name", sorted(FLOAT32_OPS))
    def test_output_and_gradients_stay_float32(self, rng, name):
        shapes, op = FLOAT32_OPS[name]
        leaves = [Tensor(rng.standard_normal(s).astype(np.float32), requires_grad=True)
                  for s in shapes]
        out = op(*leaves)
        assert out.dtype == np.float32
        (out if out.size == 1 else out.sum()).backward()
        for i, t in enumerate(leaves):
            assert t.grad is not None and t.grad.dtype == np.float32, i


# every op of two or more inputs, with each input frozen in turn
FROZEN_INPUTS = [(name, i) for name, (shapes, _) in sorted(FLOAT32_OPS.items())
                 if len(shapes) > 1 for i in range(len(shapes))]


class TestFrozenInput:
    """Every VJP returns a gradient for each input, and the sweep drops a frozen one's."""

    @staticmethod
    def run(name, frozen):
        shapes, op = FLOAT32_OPS[name]
        gen = np.random.default_rng(31)
        leaves = [Tensor(gen.standard_normal(s).astype(np.float32), requires_grad=i != frozen)
                  for i, s in enumerate(shapes)]
        out = op(*leaves)
        return leaves, out, gen.standard_normal(out.shape).astype(np.float32)

    @pytest.mark.parametrize("name, frozen", FROZEN_INPUTS,
                             ids=[f"{name}-{i}" for name, i in FROZEN_INPUTS])
    def test_vjp_returns_every_gradient_and_the_sweep_keeps_the_tracked(self, name, frozen):
        leaves, out, proj = self.run(name, frozen)
        grads = out._node.backward(np.ones_like(out.data))
        assert len(grads) == len(leaves)
        for i, (t, g) in enumerate(zip(leaves, grads)):
            assert isinstance(g, np.ndarray) and g.shape == t.shape, i
        (out * proj).sum().backward()
        want, out, proj = self.run(name, None)
        (out * proj).sum().backward()
        for i, (t, w) in enumerate(zip(leaves, want)):
            if i == frozen:
                assert t.grad is None
            else:
                np.testing.assert_array_equal(t.grad, w.grad, err_msg=str(i))


class TestConv2d:
    def test_identity_kernel(self, rng):
        x = tens(rng.standard_normal((1, 1, 5, 7)))
        w = tens(np.ones((1, 1, 1, 1)))
        b = tens(np.zeros(1))
        out = conv2d(x, w, b)
        np.testing.assert_array_equal(out.data, x.data)

    def test_ones_kernel_counts_padded_neighbors(self):
        # all-ones 3x3 kernel over all-ones 4x4 input: each output counts the
        # in-bounds taps, so corners see 4, edges 6, interior 9
        x = tens(np.ones((1, 1, 4, 4)))
        w = tens(np.ones((1, 1, 3, 3)))
        b = tens(np.zeros(1))
        out = conv2d(x, w, b).data[0, 0]
        expected = np.array(
            [
                [4.0, 6.0, 6.0, 4.0],
                [6.0, 9.0, 9.0, 6.0],
                [6.0, 9.0, 9.0, 6.0],
                [4.0, 6.0, 6.0, 4.0],
            ]
        )
        np.testing.assert_array_equal(out, expected)

    def test_asymmetric_kernel_orientation(self):
        # a 1x3 kernel [1, 0, 0] shifts content right by one column under
        # cross-correlation (output[j] = input[j-1])
        x = tens(np.arange(5.0)[None, None, None, :] * np.ones((1, 1, 1, 1)))
        w = tens(np.array([1.0, 0.0, 0.0]).reshape(1, 1, 1, 3))
        b = tens(np.zeros(1))
        out = conv2d(x, w, b).data[0, 0, 0]
        np.testing.assert_array_equal(out, [0.0, 0.0, 1.0, 2.0, 3.0])

    @pytest.mark.parametrize("kshape", [(3, 3), (13, 1), (1, 13)])
    def test_same_shape_preserved(self, rng, kshape):
        x = tens(rng.standard_normal((1, 1, 512, 128)))
        w = tens(rng.standard_normal((2, 1) + kshape))
        b = tens(rng.standard_normal(2))
        assert conv2d(x, w, b).shape == (1, 2, 512, 128)

    def test_batch_axis(self, rng):
        x4 = rng.standard_normal((3, 2, 8, 6))
        w = tens(rng.standard_normal((4, 2, 3, 3)))
        b = tens(rng.standard_normal(4))
        out = conv2d(tens(x4), w, b)
        assert out.shape == (3, 4, 8, 6)
        # per-example equality with the op on a batch of one
        for i in range(3):
            single = conv2d(tens(x4[i : i + 1]), w, b)
            np.testing.assert_allclose(out.data[i : i + 1], single.data, rtol=0, atol=1e-12)

    def test_linearity(self, rng):
        x1 = rng.standard_normal((1, 2, 6, 6))
        x2 = rng.standard_normal((1, 2, 6, 6))
        w = tens(rng.standard_normal((3, 2, 3, 3)))
        b = tens(np.zeros(3))
        lhs = conv2d(tens(2.0 * x1 + 0.5 * x2), w, b).data
        rhs = 2.0 * conv2d(tens(x1), w, b).data + 0.5 * conv2d(tens(x2), w, b).data
        np.testing.assert_allclose(lhs, rhs, atol=1e-10)

    def test_channel_mismatch_rejected(self, rng):
        x = tens(rng.standard_normal((1, 2, 4, 4)))
        w = tens(rng.standard_normal((1, 3, 3, 3)))
        with pytest.raises(ValueError, match="input has 2 channels, kernel expects 3"):
            conv2d(x, w, tens(np.zeros(1)))

    def test_even_kernel_rejected(self, rng):
        x = tens(rng.standard_normal((1, 1, 4, 4)))
        w = tens(rng.standard_normal((1, 1, 2, 2)))
        with pytest.raises(ValueError, match="kernel dims must be odd"):
            conv2d(x, w, tens(np.zeros(1)))

    def test_gradients_match_finite_differences(self, rng):
        x = Tensor(rng.standard_normal((1, 1, 6, 6)), requires_grad=True)
        w = Tensor(rng.standard_normal((2, 1, 3, 3)), requires_grad=True)
        b = Tensor(rng.standard_normal(2), requires_grad=True)
        proj = rng.standard_normal((1, 2, 6, 6))

        def loss():
            return (conv2d(x, w, b) * proj).sum()

        assert_gradients_match(loss, [x, w, b], names=["x", "w", "b"])

    def test_rectangular_kernel_gradients(self, rng):
        x = Tensor(rng.standard_normal((1, 2, 4, 15)), requires_grad=True)
        w = Tensor(rng.standard_normal((1, 2, 1, 13)), requires_grad=True)
        b = Tensor(rng.standard_normal(1), requires_grad=True)
        proj = rng.standard_normal((1, 1, 4, 15))

        def loss():
            return (conv2d(x, w, b) * proj).sum()

        assert_gradients_match(loss, [x, w, b], names=["x", "w", "b"])


def naive_conv(x, w, b, proj):
    """Same-padded correlation and the gradients of sum(out * proj), by loops.

    x: (N, C_in, H, W); w: (C_out, C_in, kh, kw). Returns (out, dx, dw, db).
    """
    n, c_in, h, wd = x.shape
    c_out, _, kh, kw = w.shape
    ph, pw = kh // 2, kw // 2
    xp = np.zeros((n, c_in, h + 2 * ph, wd + 2 * pw))
    xp[:, :, ph : ph + h, pw : pw + wd] = x
    dxp = np.zeros_like(xp)
    out = np.zeros((n, c_out, h, wd))
    dw = np.zeros(w.shape)
    for o in range(c_out):
        for c in range(c_in):
            for i in range(kh):
                for j in range(kw):
                    window = xp[:, c, i : i + h, j : j + wd]
                    out[:, o] += w[o, c, i, j] * window
                    dw[o, c, i, j] = (proj[:, o] * window).sum()
                    dxp[:, c, i : i + h, j : j + wd] += w[o, c, i, j] * proj[:, o]
    out += b[None, :, None, None]
    dx = dxp[:, :, ph : ph + h, pw : pw + wd]
    return out, dx, dw, proj.sum(axis=(0, 2, 3))


# (x shape, kernel shape): both narrow sides, equal widths, 1x1, tall and
# wide kernels longer than the map (on heights 9 and widths 8 every tap still
# reads the map; on heights 5 and widths 3-4 the outer taps read only
# padding), at batch 1 and 2. The last twelve are maps one or two columns
# wide under 3x3 and 1x13 kernels, where a flat tap slice wraps into the
# neighbouring row for every or almost every column, and maps one row high
# under 13x1 and 3x3; each shape is run at batch 1 on one narrow side and at
# batch 2 on the other.
CONV_CASES = [
    ((2, 6, 7, 9), (3, 6, 3, 3)),
    ((2, 2, 7, 9), (5, 2, 3, 3)),
    ((1, 4, 6, 5), (4, 4, 3, 3)),
    ((2, 5, 6, 6), (2, 5, 1, 1)),
    ((2, 2, 6, 6), (5, 2, 1, 1)),
    ((1, 3, 5, 4), (2, 3, 13, 1)),
    ((1, 2, 9, 3), (4, 2, 13, 1)),
    ((1, 4, 5, 8), (2, 4, 1, 13)),
    ((1, 2, 3, 4), (3, 2, 1, 13)),
    ((1, 6, 5, 7), (2, 6, 3, 3)),
    ((1, 2, 5, 7), (6, 2, 3, 3)),
    ((1, 4, 5, 1), (2, 4, 3, 3)),
    ((2, 2, 5, 1), (3, 2, 3, 3)),
    ((1, 2, 5, 2), (3, 2, 3, 3)),
    ((2, 4, 5, 2), (2, 4, 3, 3)),
    ((1, 3, 4, 1), (2, 3, 1, 13)),
    ((2, 2, 4, 1), (3, 2, 1, 13)),
    ((1, 2, 4, 2), (3, 2, 1, 13)),
    ((2, 3, 4, 2), (2, 3, 1, 13)),
    ((1, 3, 1, 5), (2, 3, 13, 1)),
    ((2, 2, 1, 5), (3, 2, 13, 1)),
    ((1, 2, 1, 5), (3, 2, 3, 3)),
    ((2, 3, 1, 5), (2, 3, 3, 3)),
]


def conv_case(rng, xshape, wshape, frozen=None, dtype=np.float64):
    x, w, b = (
        Tensor(rng.standard_normal(s).astype(dtype), requires_grad=name != frozen)
        for name, s in (("x", xshape), ("w", wshape), ("b", wshape[:1]))
    )
    proj = rng.standard_normal(xshape[:-3] + (wshape[0],) + xshape[-2:]).astype(dtype)
    return x, w, b, proj


def naive_for(x, w, b, proj):
    """naive_conv on float64 copies of the operands."""
    return naive_conv(*(a.astype(np.float64) for a in (x.data, w.data, b.data, proj)))


class TestConv2dNarrowSide:
    @pytest.mark.parametrize("xshape, wshape", CONV_CASES)
    def test_matches_naive_loops(self, rng, xshape, wshape):
        x, w, b, proj = conv_case(rng, xshape, wshape)
        out = conv2d(x, w, b)
        (out * proj).sum().backward()
        ref = naive_for(x, w, b, proj)
        for name, got, want in zip(("out", "dx", "dw", "db"),
                                   (out.data, x.grad, w.grad, b.grad), ref):
            assert got.shape == want.shape, name
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12, err_msg=name)

    @pytest.mark.parametrize("xshape, wshape", CONV_CASES)
    def test_gradients_match_finite_differences(self, rng, xshape, wshape):
        x, w, b, proj = conv_case(rng, xshape, wshape)

        def loss():
            return (conv2d(x, w, b) * proj).sum()

        assert_gradients_match(loss, [x, w, b], names=["x", "w", "b"])

    @pytest.mark.parametrize("frozen", ["x", "w", "b"])
    @pytest.mark.parametrize("xshape, wshape", CONV_CASES)
    def test_frozen_operand_gets_no_gradient(self, rng, xshape, wshape, frozen):
        x, w, b, proj = conv_case(rng, xshape, wshape, frozen=frozen)
        (conv2d(x, w, b) * proj).sum().backward()
        ref = naive_for(x, w, b, proj)[1:]
        for t, want in zip((x, w, b), ref):
            if t.requires_grad:
                np.testing.assert_allclose(t.grad, want, rtol=1e-12, atol=1e-12)
            else:
                assert t.grad is None

    @pytest.mark.parametrize("xshape, wshape", [CONV_CASES[0], CONV_CASES[1], CONV_CASES[8]])
    def test_float32_stays_float32(self, rng, xshape, wshape):
        x, w, b, proj = conv_case(rng, xshape, wshape, dtype=np.float32)
        out = conv2d(x, w, b)
        (out * proj).sum().backward()
        assert out.dtype == np.float32
        for got, want in zip((out.data, x.grad, w.grad, b.grad), naive_for(x, w, b, proj)):
            assert got.dtype == np.float32
            np.testing.assert_allclose(got, want, rtol=1e-4, atol=1e-4)


def whole_map_columns(xb, kh, kw):
    """The tap stack of the whole (N, C, H, W) map at once: (N, C*kh*kw, H*W)."""
    n, c, h, wd = xb.shape
    if kh == kw == 1:
        return xb.reshape(n, c, h * wd)
    ph, pw = kh // 2, kw // 2
    xp = np.pad(xb, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    cols = np.empty((n, c, kh, kw, h, wd), dtype=xb.dtype)
    for i in range(kh):
        for j in range(kw):
            cols[:, :, i, j] = xp[:, :, i : i + h, j : j + wd]
    return cols.reshape(n, c * kh * kw, h * wd)


def whole_map_shift_add(planes, kh, kw, h, wd):
    """Adjoint of ``whole_map_columns``: every tap plane added in one pass."""
    n = planes.shape[0]
    c = planes.shape[1] // (kh * kw)
    if kh == kw == 1:
        return planes.reshape(n, c, h, wd)
    ph, pw = kh // 2, kw // 2
    p = planes.reshape(n, c, kh, kw, h, wd)
    acc = np.zeros((n, c, h + 2 * ph, wd + 2 * pw), dtype=planes.dtype)
    for i in range(kh):
        for j in range(kw):
            acc[:, :, i : i + h, j : j + wd] += p[:, :, i, j]
    return acc[:, :, ph : ph + h, pw : pw + wd]


def whole_map_conv(xb, w, b, gb):
    """conv2d's output, dx, dw and db from whole-map tap stacks, (N, C, H, W) arrays.

    The formulas conv2d used before it stacked one band of rows at a time.
    """
    n, c_in, h, wd = xb.shape
    c_out, _, kh, kw = w.shape
    taps = kh * kw
    xr = xb.reshape(n, c_in, h * wd)
    if c_out < c_in:
        wrows = w[:, :, ::-1, ::-1].transpose(0, 2, 3, 1).reshape(c_out * taps, c_in)
        out = whole_map_shift_add(wrows @ xr, kh, kw, h, wd)
        out += b[:, None, None]
        gcols = whole_map_columns(gb, kh, kw)
        dwt = (gcols @ xr.transpose(0, 2, 1)).sum(axis=0)
        dw = dwt.reshape(c_out, kh, kw, c_in)[:, ::-1, ::-1].transpose(0, 3, 1, 2)
        wflip = w.transpose(1, 0, 2, 3)[:, :, ::-1, ::-1].reshape(c_in, c_out * taps)
        dx = (wflip @ gcols).reshape(n, c_in, h, wd)
    else:
        cols = whole_map_columns(xb, kh, kw)
        out = (w.reshape(c_out, c_in * taps) @ cols).reshape(n, c_out, h, wd)
        out += b[:, None, None]
        gr = gb.reshape(n, c_out, h * wd)
        dw = (gr @ cols.transpose(0, 2, 1)).sum(axis=0).reshape(w.shape)
        wrows = w.transpose(1, 2, 3, 0).reshape(c_in * taps, c_out)
        dx = whole_map_shift_add(wrows @ gr, kh, kw, h, wd)
    return out, dx, dw, gb.sum(axis=(0, 2, 3))


# dw is summed band by band, which reorders its float sum: its largest
# difference from the whole-map sum, relative to its largest entry. On the
# default network at 512x128 the largest seen is 2.3e-15.
DW_RTOL = 1e-13

# (x shape, kernel shape): 13x1 on heights 5, 9, 15 and 40 (bands of 1, 1,
# 2 and 4 rows; 15 leaves a one-row last band), 3x3 on height 17 (the last
# of nine bands has one row), 1x13 on width 8, both narrow sides of each,
# 1x1, at batch 1 and 2. Widths are 8 so that every band is a
# multiple of 8 columns wide; with 4-column bands OpenBLAS was seen to
# round a band's GEMM differently from the whole map's.
BAND_CASES = [
    ((1, 3, 5, 8), (2, 3, 13, 1)),
    ((1, 2, 5, 8), (4, 2, 13, 1)),
    ((1, 4, 9, 8), (3, 4, 13, 1)),
    ((1, 2, 9, 8), (4, 2, 13, 1)),
    ((2, 3, 15, 8), (2, 3, 13, 1)),
    ((1, 5, 40, 8), (3, 5, 13, 1)),
    ((1, 3, 40, 8), (5, 3, 13, 1)),
    ((2, 6, 17, 8), (3, 6, 3, 3)),
    ((2, 3, 17, 8), (6, 3, 3, 3)),
    ((1, 4, 6, 8), (2, 4, 1, 13)),
    ((2, 2, 6, 8), (4, 2, 1, 13)),
    ((2, 5, 6, 8), (2, 5, 1, 1)),
    ((2, 2, 6, 8), (5, 2, 1, 1)),
    ((1, 5, 9, 8), (2, 5, 3, 3)),
    ((1, 2, 15, 8), (4, 2, 13, 1)),
]


class TestConv2dBands:
    @pytest.mark.parametrize("xshape, wshape", BAND_CASES)
    def test_matches_whole_map_stacks(self, rng, xshape, wshape):
        x, w, b, proj = conv_case(rng, xshape, wshape)
        out = conv2d(x, w, b)
        (out * proj).sum().backward()
        want = whole_map_conv(x.data, w.data, b.data, proj)
        np.testing.assert_array_equal(out.data, want[0])
        np.testing.assert_array_equal(x.grad, want[1])
        np.testing.assert_array_equal(b.grad, want[3])
        assert np.max(np.abs(w.grad - want[2])) <= DW_RTOL * np.max(np.abs(want[2]))

    @pytest.mark.parametrize("h, taps, rows", [(5, 13, [1] * 5), (15, 13, [2] * 7 + [1]),
                                               (17, 9, [2] * 8 + [1]), (512, 13, [40] * 12 + [32]),
                                               (6, 1, [6])])
    def test_band_rows(self, h, taps, rows):
        bands = T._bands(h, taps)
        assert [r1 - r0 for r0, r1 in bands] == rows
        assert [r0 for r0, _ in bands] == [0] + [r1 for _, r1 in bands[:-1]]


class TestConv2dBandMemory:
    # A 13-tap kernel on 60 channels at 512x128 and batch 1, narrowing to
    # 10: whole-map stacks held 13 copies of the 10-channel side at once
    # (68 MB; 74 MB forward and 100 MB backward in all). A band's stack is
    # 10 channels by 13 taps by 40 rows. The slack is less than one band.
    # The padded map is flat: (h + kh - 1) * wd + kw - 1 values a channel.
    XSHAPE, WSHAPE = (1, 60, 512, 128), (10, 60, 13, 1)
    SLACK = 2**22

    def operands(self, grad):
        rng = np.random.default_rng(0)
        return tuple(Tensor(rng.standard_normal(s), requires_grad=grad)
                     for s in (self.XSHAPE, self.WSHAPE, self.WSHAPE[:1]))

    def narrow_sizes(self):
        n, _, h, wd = self.XSHAPE
        c, _, kh, kw = self.WSHAPE
        padded = n * c * ((h + kh - 1) * wd + kw - 1) * 8
        band = n * c * kh * kw * -(-h // (kh * kw)) * wd * 8
        return padded, band

    def test_forward_holds_one_band(self):
        x, w, b = self.operands(grad=False)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            out = conv2d(x, w, b)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        bound = out.data.nbytes + sum(self.narrow_sizes()) + self.SLACK
        assert peak < bound, (peak, bound)

    def test_backward_holds_one_band(self):
        x, w, b = self.operands(grad=True)
        out = conv2d(x, w, b)
        g = np.random.default_rng(1).standard_normal(out.shape)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            dx, dw, db = out._node.backward(g)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert dx.shape == self.XSHAPE and dw.shape == self.WSHAPE
        bound = dx.nbytes + sum(self.narrow_sizes()) + self.SLACK
        assert peak < bound, (peak, bound)


class TestConv2dBandMemoryWide(TestConv2dBandMemory):
    # 1x13: the same band as 13x1. A map padded 12 columns wider, as before
    # the flat layout, holds 0.5 MB more; that fits in the slack, so this
    # bound catches a wider pad only together with another extra copy.
    XSHAPE, WSHAPE = (1, 60, 512, 128), (10, 60, 1, 13)


class TestConv2dBandMemorySquare(TestConv2dBandMemory):
    # 3x3: bands of 57 rows, 9 taps
    XSHAPE, WSHAPE = (1, 60, 512, 128), (10, 60, 3, 3)


class TestMaxpool2:
    def test_values(self):
        x = tens([[[[1.0, 2.0], [4.0, 3.0]]]])
        out = maxpool2(x)
        assert out.shape == (1, 1, 1, 1)
        assert out.data[0, 0, 0, 0] == 4.0

    def test_constant_input(self):
        x = tens(np.full((1, 3, 4, 6), 7.0))
        np.testing.assert_array_equal(maxpool2(x).data, np.full((1, 3, 2, 3), 7.0))

    def test_gradient_routes_to_argmax(self):
        x = Tensor(np.array([[[[1.0, 2.0], [4.0, 3.0]]]]), requires_grad=True)
        maxpool2(x).sum().backward()
        np.testing.assert_array_equal(x.grad, [[[[0.0, 0.0], [1.0, 0.0]]]])

    def test_tie_routes_once(self):
        x = Tensor(np.full((1, 1, 2, 2), 5.0), requires_grad=True)
        maxpool2(x).sum().backward()
        assert x.grad.sum() == 1.0
        assert (x.grad >= 0).all()

    def test_odd_dims_rejected(self):
        with pytest.raises(ValueError, match="spatial dims must be even"):
            maxpool2(tens(np.zeros((1, 1, 3, 4))))

    def test_gradients_match_finite_differences(self, rng):
        x = Tensor(rng.standard_normal((1, 2, 6, 4)), requires_grad=True)
        proj = rng.standard_normal((1, 2, 3, 2))

        def loss():
            return (maxpool2(x) * proj).sum()

        assert_gradients_match(loss, [x], names=["x"])


class TestTransposedConv2:
    def test_single_pixel_stamps_kernel(self):
        x = tens(np.array([[[[2.0]]]]))
        w = tens(np.array([[[[1.0, 2.0], [3.0, 4.0]]]]))  # (1, 1, 2, 2)
        b = tens(np.zeros(1))
        out = transposed_conv2(x, w, b).data[0, 0]
        np.testing.assert_array_equal(out, [[2.0, 4.0], [6.0, 8.0]])

    def test_doubles_spatial_size(self, rng):
        x = tens(rng.standard_normal((1, 3, 16, 4)))
        w = tens(rng.standard_normal((3, 5, 2, 2)))
        b = tens(rng.standard_normal(5))
        assert transposed_conv2(x, w, b).shape == (1, 5, 32, 8)

    def test_roundtrip_shape_with_pool(self, rng):
        x = tens(rng.standard_normal((1, 2, 8, 6)))
        w = tens(rng.standard_normal((2, 2, 2, 2)))
        b = tens(np.zeros(2))
        assert maxpool2(transposed_conv2(x, w, b)).shape == (1, 2, 8, 6)

    def test_adjoint_of_strided_conv(self, rng):
        # <tconv(x), y> == <x, pool-free strided conv of y> with shared kernel;
        # verified here through the gradient: d/dx <tconv(x), y> is the strided conv
        x = Tensor(rng.standard_normal((1, 1, 3, 3)), requires_grad=True)
        w = tens(rng.standard_normal((1, 1, 2, 2)))
        y = rng.standard_normal((1, 1, 6, 6))
        (transposed_conv2(x, w, tens(np.zeros(1))) * y).sum().backward()
        manual = np.zeros((1, 1, 3, 3))
        for a in (0, 1):
            for c in (0, 1):
                manual[0, 0] += w.data[0, 0, a, c] * y[0, 0, a::2, c::2]
        np.testing.assert_allclose(x.grad, manual, atol=1e-12)

    def test_channel_mismatch_rejected(self, rng):
        x = tens(rng.standard_normal((1, 2, 4, 4)))
        w = tens(rng.standard_normal((3, 1, 2, 2)))
        with pytest.raises(ValueError, match="input has 2 channels, kernel expects 3"):
            transposed_conv2(x, w, tens(np.zeros(1)))

    def test_gradients_match_finite_differences(self, rng):
        x = Tensor(rng.standard_normal((1, 2, 3, 4)), requires_grad=True)
        w = Tensor(rng.standard_normal((2, 3, 2, 2)), requires_grad=True)
        b = Tensor(rng.standard_normal(3), requires_grad=True)
        proj = rng.standard_normal((1, 3, 6, 8))

        def loss():
            return (transposed_conv2(x, w, b) * proj).sum()

        assert_gradients_match(loss, [x, w, b], names=["x", "w", "b"])

    @staticmethod
    def per_tap(x, w, b, g):
        """The op as four separate taps: output and (dx, dw, db) for ``g``."""
        n, _, h, wd = x.shape
        out = np.empty((n, w.shape[1], 2 * h, 2 * wd))
        out[:] = b[None, :, None, None]
        dx = np.zeros_like(x)
        dw = np.empty_like(w)
        for a in (0, 1):
            for c in (0, 1):
                out[:, :, a::2, c::2] += np.tensordot(
                    x, w[:, :, a, c], axes=([1], [0])
                ).transpose(0, 3, 1, 2)
                gs = g[:, :, a::2, c::2]
                dw[:, :, a, c] = np.tensordot(x, gs, axes=([0, 2, 3], [0, 2, 3]))
                dx += np.tensordot(gs, w[:, :, a, c], axes=([1], [1])).transpose(0, 3, 1, 2)
        return out, dx, dw, g.sum(axis=(0, 2, 3))

    def test_matches_per_tap_loops(self, rng):
        x = Tensor(rng.standard_normal((2, 3, 4, 5)), requires_grad=True)
        w = Tensor(rng.standard_normal((3, 4, 2, 2)), requires_grad=True)
        b = Tensor(rng.standard_normal(4), requires_grad=True)
        g = rng.standard_normal((2, 4, 8, 10))
        out, dx, dw, db = self.per_tap(x.data, w.data, b.data, g)
        y = transposed_conv2(x, w, b)
        np.testing.assert_array_equal(y.data, out)
        (y * g).sum().backward()
        for got, want in ((x.grad, dx), (w.grad, dw), (b.grad, db)):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


class TestBatchNorm:
    def test_train_mode_standardizes(self, rng):
        x = tens(rng.standard_normal((4, 3, 8, 8)) * 5.0 + 2.0)
        gamma = tens(np.array([1.0, 2.0, 0.5]), grad=True)
        beta = tens(np.array([0.0, -1.0, 3.0]), grad=True)
        state = RunningStats(3)
        out = batchnorm(x, gamma, beta, state, training=True).data
        for ch in range(3):
            vals = out[:, ch]
            assert abs(vals.mean() - beta.data[ch]) < 1e-9
            assert abs(vals.std() - gamma.data[ch]) < 1e-3

    def test_running_stats_ema(self, rng):
        x = rng.standard_normal((2, 1, 4, 4)) + 10.0
        state = RunningStats(1)
        g, b = tens(np.ones(1)), tens(np.zeros(1))
        batchnorm(tens(x), g, b, state, training=True)
        expected_mean = 0.9 * 0.0 + 0.1 * x.mean()
        expected_var = 0.9 * 1.0 + 0.1 * x.var()
        np.testing.assert_allclose(state.mean, [expected_mean], rtol=1e-12)
        np.testing.assert_allclose(state.var, [expected_var], rtol=1e-12)

    def test_infer_mode_uses_running_stats(self, rng):
        state = RunningStats(1)
        state.mean[:] = 4.0
        state.var[:] = 9.0
        x = tens(np.full((1, 1, 2, 2), 7.0))
        out = batchnorm(x, tens(np.ones(1)), tens(np.zeros(1)), state, training=False).data
        np.testing.assert_allclose(out, np.full((1, 1, 2, 2), (7.0 - 4.0) / np.sqrt(9.0 + 1e-5)))
        # inference must not touch the stored statistics
        assert state.mean[0] == 4.0 and state.var[0] == 9.0

    def test_gamma_gradient_matches_finite_differences(self, rng):
        x = Tensor(rng.standard_normal((2, 2, 4, 4)), requires_grad=True)
        gamma = Tensor(rng.standard_normal(2) + 1.5, requires_grad=True)
        beta = Tensor(rng.standard_normal(2), requires_grad=True)
        proj = rng.standard_normal((2, 2, 4, 4))

        def loss():
            state = RunningStats(2)
            return (batchnorm(x, gamma, beta, state, training=True) * proj).sum()

        assert_gradients_match(loss, [gamma, beta, x], names=["gamma", "beta", "x"])

    def test_infer_gradient_matches_finite_differences(self, rng):
        state = RunningStats(2)
        state.mean[:] = rng.standard_normal(2)
        state.var[:] = rng.random(2) + 0.5
        x = Tensor(rng.standard_normal((1, 2, 4, 4)), requires_grad=True)
        gamma = Tensor(rng.standard_normal(2) + 1.0, requires_grad=True)
        beta = Tensor(rng.standard_normal(2), requires_grad=True)
        proj = rng.standard_normal((1, 2, 4, 4))

        def loss():
            return (batchnorm(x, gamma, beta, state, training=False) * proj).sum()

        assert_gradients_match(loss, [x, gamma, beta], names=["x", "gamma", "beta"])


class TestBatchNormAct:
    """batchnorm_act against the activation of a training-mode batchnorm."""

    @staticmethod
    def run(fused, alpha, dtype, n, into_buffer, frozen):
        gen = np.random.default_rng(40)
        x = Tensor((gen.standard_normal((n, 3, 4, 5)) * 2.0 + 1.0).astype(dtype),
                   requires_grad=frozen != "x")
        gamma = Tensor(gen.uniform(0.5, 1.5, 3).astype(dtype), requires_grad=frozen != "gamma")
        beta = Tensor(gen.normal(0.0, 0.5, 3).astype(dtype), requires_grad=frozen != "beta")
        proj = gen.standard_normal((n, 3, 4, 5)).astype(dtype)
        state = RunningStats(3, dtype=dtype)
        buf = np.full((n, 7, 4, 5), np.nan, dtype=dtype)
        out = buf[:, 2:5] if into_buffer else None
        if fused:
            y = batchnorm_act(x, gamma, beta, state, alpha, out=out)
        else:
            h = batchnorm(x, gamma, beta, state, True)
            y = relu(h, out=out) if alpha == 0.0 else leaky_relu(h, alpha, out=out)
        if into_buffer:
            assert y.data.base is buf
            assert np.isnan(buf[:, :2]).all() and np.isnan(buf[:, 5:]).all()
        (y * proj).sum().backward()
        return [y.data, state.mean, state.var, x.grad, gamma.grad, beta.grad]

    @pytest.mark.parametrize("alpha", [0.0, 0.01], ids=["relu", "leaky_relu"])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("into_buffer", [False, True], ids=["new", "buffer"])
    @pytest.mark.parametrize("frozen", [None, "x", "gamma", "beta"])
    def test_bit_identical_to_the_two_ops(self, alpha, dtype, n, into_buffer, frozen):
        got = self.run(True, alpha, dtype, n, into_buffer, frozen)
        want = self.run(False, alpha, dtype, n, into_buffer, frozen)
        assert (got[0] < 0).any() == (alpha > 0) and (got[0] == 0).any() == (alpha == 0)
        names = ["out", "running_mean", "running_var", "x", "gamma", "beta"]
        for name, g, w in zip(names, got, want):
            if name == frozen:
                assert g is None and w is None
            else:
                assert g.dtype == dtype, name
                np.testing.assert_array_equal(g, w, err_msg=name)

    @pytest.mark.parametrize("alpha", [0.0, 0.01], ids=["relu", "leaky_relu"])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_bytes_at_a_zero_channel_and_special_gradients(self, alpha, dtype):
        # channels 1 and 3 have gamma = beta = 0, so their map is exactly 0;
        # the output gradient holds signed zeros in channels 0 and 1 and
        # +-inf and NaN in channels 2 and 3. tobytes tells -0.0 from 0.0 and
        # one NaN from another, where assert_array_equal does not.
        def run(fused):
            gen = np.random.default_rng(46)
            x = Tensor((gen.standard_normal((2, 4, 4, 5)) * 2.0 + 1.0).astype(dtype),
                       requires_grad=True)
            gamma = Tensor(np.array([1.2, 0.0, 0.8, 0.0], dtype), requires_grad=True)
            beta = Tensor(np.array([0.3, 0.0, -0.2, 0.0], dtype), requires_grad=True)
            proj = gen.standard_normal((2, 4, 4, 5)).astype(dtype)
            proj[:, :2, ::2] = 0.0
            proj[:, :2, 1::2, ::2] = -0.0
            proj[:, 2:, 0] = np.inf
            proj[:, 2:, 1] = -np.inf
            proj[:, 2:, 2, :3] = np.nan
            state = RunningStats(4, dtype=dtype)
            if fused:
                y = batchnorm_act(x, gamma, beta, state, alpha)
            else:
                y = leaky_relu(batchnorm(x, gamma, beta, state, True), alpha)
            with np.errstate(invalid="ignore"):  # 0 * inf and inf - inf
                (y * proj).sum().backward()
            return [y.data, state.mean, state.var, x.grad, gamma.grad, beta.grad]

        got, want = run(True), run(False)
        assert (want[0][:, 1::2] == 0).all() and np.isnan(want[3][:, 2:]).all()
        names = ["out", "running_mean", "running_var", "x", "gamma", "beta"]
        for name, g, w in zip(names, got, want):
            assert g.dtype == w.dtype == dtype, name
            assert g.tobytes() == w.tobytes(), name

    @pytest.mark.parametrize("alpha", [0.0, 0.2], ids=["relu", "leaky_relu"])
    def test_gradients_match_finite_differences(self, alpha):
        rng = np.random.default_rng(44)
        x = Tensor(rng.standard_normal((2, 2, 4, 3)), requires_grad=True)
        gamma = Tensor(rng.uniform(0.5, 1.5, 2), requires_grad=True)
        beta = Tensor(rng.normal(0.0, 0.3, 2), requires_grad=True)
        proj = rng.standard_normal((2, 2, 4, 3))
        buf = np.empty((2, 5, 4, 3))

        def loss():
            return (batchnorm_act(x, gamma, beta, RunningStats(2), alpha,
                                  out=buf[:, 1:3]) * proj).sum()

        # the 1e-5 steps of x, gamma and beta never carry a value across the kink
        h = batchnorm(x, gamma, beta, RunningStats(2), True).data
        assert np.abs(h).min() > 0.05
        assert_gradients_match(loss, [x, gamma, beta], names=["x", "gamma", "beta"])

    def test_nan_passes_through(self):
        x = tens(np.array([np.nan, -1.0, 0.5, 2.0]).reshape(1, 1, 2, 2))
        for alpha in (0.0, 0.5):
            y = batchnorm_act(x, tens(np.ones(1)), tens(np.zeros(1)), RunningStats(1), alpha)
            assert np.isnan(y.data).all()  # the batch statistics are NaN too
        state = RunningStats(2)
        x = tens(np.stack([np.full((2, 2), np.nan), [[-1.0, 1.0], [-2.0, 2.0]]])[None])
        y = batchnorm_act(x, tens(np.ones(2)), tens(np.zeros(2)), state, 0.5)
        assert np.isnan(y.data[0, 0]).all() and np.isnan(state.mean[0])
        assert np.isfinite(y.data[0, 1]).all() and (y.data[0, 1] < 0).any()

    @pytest.mark.parametrize("alpha", [0.0, 0.01], ids=["relu", "leaky_relu"])
    def test_keep_holds_xhat_that_rebuilds_the_output(self, alpha):
        # the caller may use keep and the output in between, if it puts xhat
        # back and rebuilds the output with affine_act before backward
        def run(keep):
            gen = np.random.default_rng(45)
            x = Tensor(gen.standard_normal((2, 3, 4, 5)), requires_grad=True)
            gamma = Tensor(gen.uniform(0.5, 1.5, 3), requires_grad=True)
            beta = Tensor(gen.normal(0.0, 0.5, 3), requires_grad=True)
            y = batchnorm_act(x, gamma, beta, RunningStats(3), alpha, keep=keep)
            out = y.data.copy()
            if keep is not None:
                xhat = keep.copy()
                y.data[...] = keep[...] = np.nan
                keep[...] = xhat
                np.testing.assert_array_equal(
                    T.affine_act(keep, gamma.data, beta.data, alpha, out=y.data), out)
            (y * gen.standard_normal(y.shape)).sum().backward()
            return [out, x.grad, gamma.grad, beta.grad]

        keep = np.empty((2, 7, 4, 5))[:, 2:5]
        for got, want in zip(run(keep), run(None)):
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("alpha", [-0.1, 1.0])
    def test_alpha_outside_unit_interval_rejected(self, alpha):
        with pytest.raises(ValueError, match="0 <= alpha < 1"):
            batchnorm_act(tens(np.ones((1, 1, 2, 2))), tens(np.ones(1)), tens(np.zeros(1)),
                          RunningStats(1), alpha)


class TestRecompute:
    def test_output_is_the_input(self):
        x = tens(np.arange(4.0), grad=True)
        y = recompute(x, lambda: None)
        assert y.data is x.data
        y.sum().backward()
        np.testing.assert_array_equal(x.grad, np.ones(4))

    def test_fn_runs_before_the_vjps_of_earlier_ops(self):
        # mul_const reads its constant in backward; the caller clobbers it
        # after the forward pass and recompute's fn puts it back
        x = tens(np.ones(3), grad=True)
        const = np.array([1.0, 2.0, 3.0])
        y = x * const
        const[...] = 0.0
        recompute(y, lambda: const.__setitem__(Ellipsis, [1.0, 2.0, 3.0])).sum().backward()
        np.testing.assert_array_equal(x.grad, [1.0, 2.0, 3.0])


SPATIAL_OPS = {
    "conv2d": lambda x: conv2d(x, tens(np.ones((3, 2, 3, 3))), tens(np.zeros(3))),
    "transposed_conv2": lambda x: transposed_conv2(x, tens(np.ones((2, 3, 2, 2))),
                                                   tens(np.zeros(3))),
    "maxpool2": maxpool2,
    "batchnorm": lambda x: batchnorm(x, tens(np.ones(2)), tens(np.zeros(2)),
                                     RunningStats(2), False),
    "batchnorm_act": lambda x: batchnorm_act(x, tens(np.ones(2)), tens(np.zeros(2)),
                                             RunningStats(2), 0.0),
}


class TestLayout:
    @pytest.mark.parametrize("name", sorted(SPATIAL_OPS))
    def test_map_without_batch_axis_rejected(self, name):
        # (C, H, W) with C = 2 fits every kernel and stats: only the rank is wrong
        x = tens(np.ones((2, 4, 4)))
        with pytest.raises(ValueError, match=r"expected \(N, C, H, W\) feature maps, "
                                             r"got shape \(2, 4, 4\)"):
            SPATIAL_OPS[name](x)
        SPATIAL_OPS[name](tens(np.ones((1, 2, 4, 4))))


class TestElementwise:
    def test_values(self):
        x = tens([-3.0, 0.0, 2.0])
        np.testing.assert_array_equal(relu(x).data, [0.0, 0.0, 2.0])
        np.testing.assert_allclose(leaky_relu(x, 0.01).data, [-0.03, 0.0, 2.0])
        assert sigmoid(tens([0.0])).data[0] == 0.5
        assert log1p(tens([0.0])).data[0] == 0.0
        np.testing.assert_allclose(log1p(tens([np.e - 1.0])).data, [1.0], rtol=1e-12)

    def test_sigmoid_saturation_is_finite(self):
        out = sigmoid(tens([-1000.0, 1000.0])).data
        np.testing.assert_allclose(out, [0.0, 1.0], atol=1e-12)
        assert np.all(np.isfinite(out))

    def test_log1p_domain_checked(self):
        with pytest.raises(ValueError):
            log1p(tens([-1.5]))

    @pytest.mark.parametrize(
        "fn", [relu, lambda t: leaky_relu(t, 0.01), sigmoid, log1p]
    )
    def test_gradients_match_finite_differences(self, rng, fn):
        x = Tensor(rng.random((3, 4)) + 0.25, requires_grad=True)  # stay off kinks
        proj = rng.standard_normal((3, 4))

        def loss():
            return (fn(x) * proj).sum()

        assert_gradients_match(loss, [x], names=["x"])

    @pytest.mark.parametrize("alpha", [None, 0.0, 0.01], ids=["relu", "leaky_0", "leaky_0.01"])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_values_and_gradients_bit_for_bit(self, alpha, dtype):
        # against max(x, 0) with gradient g times the 0/1 mask of x > 0 at
        # slope 0 (so -inf, -3 and -0.0 give +0.0, not NaN or -0.0), and
        # max(x, alpha * x) with g or g * alpha otherwise, byte for byte;
        # every x meets every g, and the node keeps no mask
        xs = np.array([-np.inf, -3.0, -0.0, 0.0, 2.0, np.inf, np.nan], dtype)
        gs = np.array([-1.5, 2.0, -0.0, 0.0, np.inf, -np.inf, np.nan], dtype)
        x = Tensor(np.repeat(xs, gs.size), requires_grad=True)
        g = np.tile(gs, xs.size)
        y = relu(x) if alpha is None else leaky_relu(x, alpha)
        with np.errstate(invalid="ignore"):  # inf * 0
            (got,) = y._node.backward(g)
            if alpha:
                want = np.maximum(x.data, alpha * x.data)
                want_g = np.where(x.data > 0, g, g * alpha)
            else:
                want, want_g = np.maximum(x.data, 0.0), g * (x.data > 0)
        assert y.dtype == got.dtype == dtype
        assert y.data.tobytes() == want.tobytes()
        assert got.tobytes() == want_g.tobytes()
        _, _, arrays = graph_contents(y)
        assert [a.shape for _, a in arrays if a.dtype == bool] == []

    def test_nan_passes_through_activations(self):
        x = tens([np.nan, -1.0, 2.0])
        np.testing.assert_array_equal(relu(x).data, [np.nan, 0.0, 2.0])
        np.testing.assert_array_equal(leaky_relu(x, 0.5).data, [np.nan, -0.5, 2.0])

    @pytest.mark.parametrize("alpha", [-0.1, 1.0, 1.5])
    def test_leaky_relu_alpha_outside_unit_interval_rejected(self, alpha):
        with pytest.raises(ValueError, match="0 <= alpha < 1"):
            leaky_relu(tens([1.0, -1.0]), alpha)


ACTIVATIONS = {
    "relu": relu,
    "leaky_relu": lambda x, out=None: leaky_relu(x, 0.2, out=out),
}


class TestActivationOut:
    """relu and leaky_relu written into a channel slice of a batch-2 buffer."""

    @pytest.mark.parametrize("name", sorted(ACTIVATIONS))
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_writes_the_values_of_the_plain_call(self, rng, name, dtype):
        fn = ACTIVATIONS[name]
        x = Tensor(rng.standard_normal((2, 2, 4, 3)).astype(dtype), requires_grad=True)
        buf = np.full((2, 5, 4, 3), np.nan, dtype=dtype)
        got = fn(x, out=buf[:, 1:3])
        assert got.data.base is buf and got.dtype == dtype
        np.testing.assert_array_equal(got.data, fn(x).data)
        assert np.isnan(buf[:, 0]).all() and np.isnan(buf[:, 3:]).all()
        got.sum().backward()
        assert x.grad.dtype == dtype

    @pytest.mark.parametrize("name", sorted(ACTIVATIONS))
    def test_out_may_be_the_input(self, rng, name):
        # the VJP reads the kept input's sign, which the output shares
        fn = ACTIVATIONS[name]
        values = rng.standard_normal((2, 2, 4, 3))
        proj = rng.standard_normal(values.shape)
        plain, inplace = Tensor(values, requires_grad=True), Tensor(values.copy(), True)
        want = fn(plain)
        got = fn(inplace, out=inplace.data)
        assert got.data is inplace.data
        np.testing.assert_array_equal(got.data, want.data)
        (want * proj).sum().backward()
        (got * proj).sum().backward()
        np.testing.assert_array_equal(inplace.grad, plain.grad)

    @pytest.mark.parametrize("name", sorted(ACTIVATIONS))
    def test_gradients_match_finite_differences(self, rng, name):
        fn = ACTIVATIONS[name]
        values = rng.standard_normal((2, 2, 4, 3))
        x = Tensor(values + np.sign(values) * 0.25, requires_grad=True)  # off the kink
        proj = rng.standard_normal(x.shape)
        buf = np.empty((2, 5, 4, 3))

        def loss():
            return (fn(x, out=buf[:, 1:3]) * proj).sum()

        assert_gradients_match(loss, [x], names=["x"])


class TestConcat:
    def test_values_and_order(self, rng):
        a = tens(rng.standard_normal((2, 3, 3)))
        b = tens(rng.standard_normal((1, 3, 3)))
        out = concat_channels([a, b])
        assert out.shape == (3, 3, 3)
        np.testing.assert_array_equal(out.data[:2], a.data)
        np.testing.assert_array_equal(out.data[2:], b.data)

    def test_single_input_identity(self, rng):
        a = tens(rng.standard_normal((2, 4, 4)))
        np.testing.assert_array_equal(concat_channels([a]).data, a.data)

    def test_spatial_mismatch_rejected(self, rng):
        a = tens(rng.standard_normal((1, 4, 4)))
        b = tens(rng.standard_normal((1, 4, 5)))
        with pytest.raises(ValueError):
            concat_channels([a, b])

    def test_gradient_slices_back(self, rng):
        a = Tensor(rng.standard_normal((2, 2, 2)), requires_grad=True)
        b = Tensor(rng.standard_normal((3, 2, 2)), requires_grad=True)
        proj = rng.standard_normal((5, 2, 2))
        (concat_channels([a, b]) * proj).sum().backward()
        np.testing.assert_allclose(a.grad, proj[:2])
        np.testing.assert_allclose(b.grad, proj[2:])


class TestConcatPrefix:
    def test_view_of_buffer_with_concat_gradient(self, rng):
        a = Tensor(rng.standard_normal((2, 2, 3, 3)), requires_grad=True)
        b = Tensor(rng.standard_normal((2, 1, 3, 3)), requires_grad=True)
        buf = np.concatenate([a.data, b.data, rng.standard_normal((2, 4, 3, 3))], axis=1)
        out = concat_prefix([a, b], buf)
        assert out.shape == (2, 3, 3, 3) and np.shares_memory(out.data, buf)
        np.testing.assert_array_equal(out.data, concat_channels([a, b]).data)
        proj = rng.standard_normal((2, 3, 3, 3))
        (out * proj).sum().backward()
        np.testing.assert_array_equal(a.grad, proj[:, :2])
        np.testing.assert_array_equal(b.grad, proj[:, 2:])

    def test_parts_must_fit_buffer(self, rng):
        a = tens(rng.standard_normal((2, 3, 3)))
        with pytest.raises(ValueError, match="channels"):
            concat_prefix([a, a], np.zeros((3, 3, 3)))
        with pytest.raises(ValueError, match="does not fit"):
            concat_prefix([a], np.zeros((4, 3, 4)))


class TestDeepComposition:
    def test_conv_pool_upsample_chain_gradients(self, rng):
        # conv -> pool -> tconv -> sigmoid, checked end to end at the
        # looser tolerance used for deep compositions
        x = Tensor(rng.standard_normal((1, 1, 8, 8)), requires_grad=True)
        w1 = Tensor(rng.standard_normal((2, 1, 3, 3)) * 0.5, requires_grad=True)
        b1 = Tensor(np.zeros(2), requires_grad=True)
        w2 = Tensor(rng.standard_normal((2, 1, 2, 2)) * 0.5, requires_grad=True)
        b2 = Tensor(np.zeros(1), requires_grad=True)
        proj = rng.standard_normal((1, 1, 8, 8))

        def loss():
            h = maxpool2(relu(conv2d(x, w1, b1)))
            return (sigmoid(transposed_conv2(h, w2, b2)) * proj).sum()

        assert_gradients_match(
            loss, [x, w1, b1, w2, b2], rtol=1e-3, atol=1e-6,
            names=["x", "w1", "b1", "w2", "b2"],
        )


class TestNumericGradientHarness:
    def test_detects_wrong_gradient(self):
        # numeric_gradient itself is trusted; a deliberately broken closure
        # must be caught by the comparison
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)

        def loss():
            return (x * x).sum()

        g = numeric_gradient(loss, x)
        np.testing.assert_allclose(g, [2.0, 4.0], atol=1e-8)

    def test_non_contiguous_leaf(self):
        # the steps must reach the tensor's own array, not a flat copy of it
        def numeric(data):
            x = Tensor(data, requires_grad=True)
            return numeric_gradient(lambda: (x * x).sum(), x)

        data = np.arange(6.0).reshape(2, 3).T
        assert not data.flags.c_contiguous
        got = numeric(data)
        # the sums run in another order, so the differences agree to roundoff
        np.testing.assert_allclose(got, numeric(data.copy()), rtol=0, atol=1e-8)
        np.testing.assert_allclose(got, 2.0 * data, rtol=0, atol=1e-8)

    def test_names_must_match_tensors(self):
        a = Tensor(np.array([1.0]), requires_grad=True)
        b = Tensor(np.array([2.0]), requires_grad=True)
        with pytest.raises(ValueError, match="1 names for 2 tensors"):
            assert_gradients_match(lambda: (a * b).sum(), [a, b], names=["a"])
