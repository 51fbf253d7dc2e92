"""Loss, optimizer, scheduler, ground-truth assembly, and train-loop tests."""

import math
import tracemalloc

import numpy as np
import pytest

from hpsep import tensor as T
from hpsep import training
from hpsep.dsp import N_BINS, PATCH_FRAMES, stft
from hpsep.network import MaskSeparator, NetworkConfig, ParamStore, load_checkpoint
from hpsep.tensor import Tensor
from hpsep.training import (
    Decision,
    Example,
    TrainConfig,
    TrainingError,
    adam_step,
    ground_truth_tiles,
    init_train_state,
    make_ground_truth,
    masking_loss,
    schedule_epoch,
    split_tracks,
    train,
)


class TestMaskingLoss:
    def test_zero_when_masked_estimates_match_targets(self):
        x = np.full((2, 3), 4.0)
        mp = Tensor(np.full((2, 3), 0.25))
        mh = Tensor(np.full((2, 3), 0.75))
        loss = masking_loss(mp, mh, x, 0.25 * x, 0.75 * x)
        assert loss.item() == 0.0

    def test_zero_on_pure_percussive_input(self):
        x = np.abs(np.random.default_rng(0).normal(size=(4, 4))) + 0.1
        loss = masking_loss(Tensor(np.ones_like(x)), Tensor(np.zeros_like(x)),
                            x, x, np.zeros_like(x))
        assert loss.item() == 0.0

    def test_hand_computed_toy_value(self):
        x = np.array([[2.0, 0.0], [0.0, 2.0]])
        half = Tensor(np.full((2, 2), 0.5))
        loss = masking_loss(half, half, x, x, np.zeros_like(x),
                            lambda_p=0.5, lambda_h=0.5)
        assert loss.item() == 0.25

    def test_positive_whenever_a_masked_estimate_misses(self):
        x = np.full((3, 3), 2.0)
        mp = Tensor(np.full((3, 3), 0.5))
        loss = masking_loss(mp, Tensor(np.full((3, 3), 0.5)), x, x, np.zeros_like(x))
        assert loss.item() > 0.0

    def test_weights_select_terms(self):
        x = np.full((2, 2), 2.0)
        good = Tensor(np.ones_like(x))
        bad = Tensor(np.zeros_like(x))
        only_p = masking_loss(bad, good, x, x, np.zeros_like(x), 1.0, 0.0)
        # m_h = 1 leaves the harmonic residual at x - 0 = x, but weight 0 hides it
        assert only_p.item() == pytest.approx(np.sum(x * x) / (2 * x.size))
        assert masking_loss(good, bad, x, x, np.zeros_like(x), 1.0, 0.0).item() == 0.0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            masking_loss(Tensor(np.ones((2, 2))), Tensor(np.ones((2, 2))),
                         np.ones((2, 2)), np.ones((2, 3)), np.ones((2, 2)))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        x = np.abs(rng.normal(size=(1, 4, 4))) + 0.1
        p = np.abs(rng.normal(size=(1, 4, 4)))
        h = np.abs(rng.normal(size=(1, 4, 4)))
        mp = Tensor(rng.random((1, 4, 4)), requires_grad=True)
        mh = Tensor(rng.random((1, 4, 4)), requires_grad=True)

        def loss():
            return masking_loss(mp, mh, x, p, h, 0.7, 0.3)

        T.assert_gradients_match(loss, [mp, mh], names=["mask_p", "mask_h"])


class TestAdam:
    def make_store(self, values):
        store = ParamStore()
        store.add_param("w", np.asarray(values, dtype=np.float64))
        return store

    def test_first_step_moves_by_lr_toward_minus_sign(self):
        store = self.make_store([1.0, -2.0])
        cfg = TrainConfig(lr0=0.01)
        state = init_train_state(store, cfg)
        store.params["w"].grad = np.array([2.5, -0.3])
        adam_step(store, state)
        np.testing.assert_allclose(store.params["w"].data,
                                   [1.0 - 0.01, -2.0 + 0.01], atol=1e-6)
        assert state.step == 1

    def test_zero_gradient_is_a_no_op(self):
        store = self.make_store([3.0, -1.0])
        state = init_train_state(store, TrainConfig())
        store.params["w"].grad = np.zeros(2)
        adam_step(store, state)
        np.testing.assert_array_equal(store.params["w"].data, [3.0, -1.0])

    def test_scalar_quadratic_converges(self):
        store = self.make_store([0.0])
        state = init_train_state(store, TrainConfig(lr0=0.1))
        w = store.params["w"]
        for _ in range(200):
            w.grad = 2.0 * (w.data - 3.0)
            adam_step(store, state)
        assert abs(w.data[0] - 3.0) < 0.1
        assert state.step == 200

    def test_missing_gradient_names_parameter(self):
        store = self.make_store([1.0])
        state = init_train_state(store, TrainConfig())
        with pytest.raises(TrainingError, match="w"):
            adam_step(store, state)

    def test_nan_gradient_names_parameter(self):
        store = ParamStore()
        store.add_param("alpha", np.ones(2))
        store.add_param("beta", np.ones(2))
        state = init_train_state(store, TrainConfig())
        store.params["alpha"].grad = np.zeros(2)
        store.params["beta"].grad = np.array([0.0, np.nan])
        with pytest.raises(TrainingError, match="beta"):
            adam_step(store, state)

    def test_moments_shaped_like_parameters(self):
        store = ParamStore()
        store.add_param("a", np.zeros((3, 4)))
        store.add_param("b", np.zeros(7))
        state = init_train_state(store, TrainConfig())
        assert state.moments["a"][0].shape == (3, 4)
        assert state.moments["b"][1].shape == (7,)


def run_history(values, cfg=None):
    cfg = cfg or TrainConfig()
    store = ParamStore()
    store.add_param("w", np.zeros(1))
    state = init_train_state(store, cfg)
    decisions = []
    lrs = []
    for v in values:
        decisions.append(schedule_epoch(v, state, cfg))
        lrs.append(state.lr)
    return decisions, lrs, state


class TestScheduler:
    def test_steady_improvement_never_intervenes(self):
        decisions, lrs, _ = run_history([1.0, 0.9, 0.8, 0.7, 0.6])
        assert all(d is Decision.CONTINUE for d in decisions)
        assert all(lr == TrainConfig().lr0 for lr in lrs)

    def test_reduces_after_third_stale_epoch(self):
        decisions, lrs, _ = run_history([1.0, 1.0, 1.0, 1.0])
        assert decisions == [Decision.CONTINUE, Decision.CONTINUE,
                             Decision.CONTINUE, Decision.REDUCE_LR]
        assert lrs[-1] == TrainConfig().lr0 * 0.5

    def test_stops_after_fifteen_stale_epochs(self):
        history = [1.0] + [1.0] * 15
        decisions, lrs, _ = run_history(history)
        assert decisions[-1] is Decision.STOP
        assert Decision.STOP not in decisions[:-1]
        # epoch i is stale count i: reductions at 3, 6, 9, 12; stop wins at 15
        assert [i for i, d in enumerate(decisions) if d is Decision.REDUCE_LR] == [3, 6, 9, 12]
        assert lrs[-1] == TrainConfig().lr0 * 0.5**4

    def test_improvement_resets_both_counters(self):
        decisions, _, state = run_history([1.0, 1.0, 1.0, 0.5, 0.5, 0.5])
        assert decisions[3] is Decision.CONTINUE
        assert state.stale_epochs == 2
        # the stale count restarts for the reduction as well as for the stop
        decisions, lrs, _ = run_history([1.0, 1.0, 1.0, 0.5, 0.5, 0.5, 0.5])
        assert decisions.index(Decision.REDUCE_LR) == 6
        assert lrs[5] == TrainConfig().lr0
        # two stale epochs, an improvement, then one stale epoch: no cut
        decisions, _, _ = run_history([1.0, 1.0, 1.0, 0.5, 0.5])
        assert decisions == [Decision.CONTINUE] * 5

    def test_tolerance_is_strict(self):
        cfg = TrainConfig()
        _, _, state = run_history([1.0], cfg)
        tol = training.IMPROVE_TOL
        assert schedule_epoch(1.0 - tol, state, cfg) is Decision.CONTINUE
        assert state.stale_epochs == 1  # within tolerance: stale
        assert schedule_epoch(1.0 - 2 * tol, state, cfg) is Decision.CONTINUE
        assert state.stale_epochs == 0  # beyond tolerance: improved

    def test_decisions_replay_exactly(self):
        history = [3.0, 2.5, 2.5, 2.5, 2.4, 2.4, 2.4, 2.4, 2.4]
        first = run_history(history)[0]
        second = run_history(history)[0]
        assert first == second


class TestGroundTruth:
    def track(self, seconds=1.6, seed=0):
        n = int(44100 * seconds)
        rng = np.random.default_rng(seed)
        mix = rng.normal(size=n) * 0.1
        drums = rng.normal(size=n) * 0.05
        return mix, drums

    def test_drums_equal_mix_gives_zero_harmonic(self):
        mix, _ = self.track()
        examples = make_ground_truth(mix, mix)
        assert len(examples) >= 1
        for e in examples:
            np.testing.assert_array_equal(e.h.values, 0.0)
            np.testing.assert_array_equal(e.p.values, e.x.values)

    def test_silent_drums_give_harmonic_equal_to_mix(self):
        mix, _ = self.track(seed=1)
        examples = make_ground_truth(mix, np.zeros_like(mix))
        for e in examples:
            np.testing.assert_array_equal(e.h.values, e.x.values)
            np.testing.assert_array_equal(e.p.values, 0.0)

    def test_magnitudes_are_not_additive(self):
        mix, drums = self.track(seed=2)
        e = make_ground_truth(mix, drums)[0]
        assert not np.allclose(e.p.values + e.h.values, e.x.values)

    def test_length_mismatch_rejected(self):
        mix, drums = self.track()
        with pytest.raises(ValueError, match="length mismatch"):
            make_ground_truth(mix, drums[:-1])

    def test_patches_share_framing(self):
        mix, drums = self.track(seconds=2.1, seed=3)
        examples = make_ground_truth(mix, drums)
        frames = stft(mix).frames
        assert len(examples) == 2 and PATCH_FRAMES < frames < 2 * PATCH_FRAMES
        for tile in (examples[-1].x, examples[-1].p, examples[-1].h):
            assert tile.values.shape == (N_BINS, PATCH_FRAMES)
            assert np.all(tile.values[:, frames - PATCH_FRAMES:] == 0.0)
            assert np.any(tile.values[:, : frames - PATCH_FRAMES] > 0.0)
        # the records hold what the arrays hold, tile for tile
        arrays = ground_truth_tiles(mix, drums)
        for k, a in enumerate(arrays):
            assert a.shape == (2, 1, N_BINS, PATCH_FRAMES)
            for i, e in enumerate(examples):
                np.testing.assert_array_equal((e.x, e.p, e.h)[k].values, a[i, 0])


class TestSplit:
    def rng(self):
        return np.random.Generator(np.random.PCG64(0))

    def test_partition_is_disjoint_and_complete(self):
        train_idx, val_idx = split_tracks(5, self.rng())
        assert len(val_idx) == 1 and len(train_idx) == 4
        assert sorted(train_idx + val_idx) == list(range(5))

    def test_two_tracks_split_one_each(self):
        train_idx, val_idx = split_tracks(2, self.rng())
        assert len(train_idx) == len(val_idx) == 1

    def test_single_track_rejected(self):
        with pytest.raises(TrainingError, match="at least 2"):
            split_tracks(1, self.rng())


def toy_tracks(n=2, seconds=1.55):
    length = int(44100 * seconds)
    t = np.arange(length) / 44100.0
    tracks = []
    for i in range(n):
        rng = np.random.default_rng(100 + i)
        harm = 0.3 * np.sin(2 * np.pi * (220 + 55 * i) * t)
        perc = np.zeros(length)
        perc[:: 8000 + 500 * i] = 1.0
        perc = np.convolve(perc, np.exp(-np.arange(400) / 60.0), mode="same")
        perc *= 0.4 * rng.random() + 0.3
        tracks.append((harm + perc, perc))
    return tracks


def tiny_net():
    return NetworkConfig(growth_rate=1, layers_per_block=1, depth=1,
                         final_block_layers=1)


class TestTrainLoop:
    def test_runs_and_writes_outputs(self, tmp_path):
        ckpt = tmp_path / "sep.ckpt"
        cfg = TrainConfig(max_epochs=2, batch_size=4, seed=7)
        result = train(toy_tracks(), tiny_net(), cfg, checkpoint_path=str(ckpt))
        assert result.epochs == 2
        assert not result.stopped_early
        assert math.isfinite(result.best_val_loss)
        model, stats = load_checkpoint(ckpt)
        assert stats.max_val > stats.min_val
        lines = (tmp_path / "sep.ckpt.metrics.csv").read_text().strip().splitlines()
        assert lines[0] == "epoch,train_loss,val_loss,lr"
        assert len(lines) == 3
        first = lines[1].split(",")
        assert first[0] == "1" and float(first[3]) == cfg.lr0

    def test_split_is_disjoint_at_track_level(self, tmp_path):
        cfg = TrainConfig(max_epochs=1, seed=3)
        result = train(toy_tracks(3), tiny_net(), cfg,
                       checkpoint_path=str(tmp_path / "s.ckpt"))
        overlap = set(result.train_track_indices) & set(result.val_track_indices)
        assert not overlap
        assert sorted(result.train_track_indices + result.val_track_indices) == [0, 1, 2]

    def test_fixed_seed_reproduces_run_exactly(self, tmp_path):
        outs = []
        for run in ("a", "b"):
            ckpt = tmp_path / f"{run}.ckpt"
            train(toy_tracks(), tiny_net(), TrainConfig(max_epochs=2, seed=11),
                  checkpoint_path=str(ckpt))
            outs.append((ckpt.read_bytes(),
                         (tmp_path / f"{run}.ckpt.metrics.csv").read_text()))
        assert outs[0][1] == outs[1][1]
        assert outs[0][0] == outs[1][0]

    def test_empty_dataset_rejected(self, tmp_path):
        with pytest.raises(TrainingError, match="empty"):
            train([], tiny_net(), TrainConfig(), checkpoint_path=str(tmp_path / "x"))

    def test_single_track_rejected(self, tmp_path):
        with pytest.raises(TrainingError, match="at least 2"):
            train(toy_tracks(1), tiny_net(), TrainConfig(),
                  checkpoint_path=str(tmp_path / "x"))

    @pytest.mark.parametrize("out, made, message", [
        ("nodir/m.ckpt", [], "checkpoint directory .*nodir does not exist"),
        ("outdir", ["outdir"], "checkpoint path .*outdir is a directory"),
    ], ids=["no-directory", "is-directory"])
    def test_refused_before_any_stft(self, tmp_path, monkeypatch, out, made, message):
        def no_stft(*args, **kwargs):
            raise AssertionError("an STFT ran before the refusal")

        monkeypatch.setattr(training, "stft", no_stft)
        for name in made:
            (tmp_path / name).mkdir()
        with pytest.raises(TrainingError, match=message):
            train(toy_tracks(), tiny_net(), TrainConfig(), checkpoint_path=str(tmp_path / out))
        assert [str(p.relative_to(tmp_path)) for p in tmp_path.rglob("*")] == made

    def test_divergence_aborts_and_keeps_checkpoint(self, tmp_path):
        ckpt = tmp_path / "diverge.ckpt"
        cfg = TrainConfig(max_epochs=4, batch_size=1, lr0=1e300, seed=5)
        with np.errstate(all="ignore"):
            with pytest.raises(TrainingError, match="non-finite"):
                train(toy_tracks(), tiny_net(), cfg, checkpoint_path=str(ckpt))
        model, stats = load_checkpoint(ckpt)  # pre-divergence save still loads
        assert math.isfinite(stats.min_val)


class TestStepMemory:
    def test_backward_frees_graph_while_outputs_are_held(self):
        # train() keeps loss, mp and mh bound through backward; the step's
        # activations must be gone all the same once backward returns
        net = NetworkConfig(growth_rate=2, layers_per_block=2, depth=2,
                            final_block_layers=2)
        model = MaskSeparator(net, seed=0)
        x = np.random.default_rng(0).random((2, 1, 64, 64))
        p, h = 0.3 * x, 0.7 * x
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            mp, mh = model.forward(Tensor(x), training=True)
            loss = masking_loss(mp, mh, x, p, h)
            model.store.zero_grad()
            loss.backward()
            after, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert mp.shape == mh.shape == x.shape and math.isfinite(loss.item())
        assert after - before < 0.25 * (peak - before)

    def test_forward_graph_keeps_one_buffer_per_block(self):
        # What the graph of a training-mode forward may hold, counted in maps
        # of one channel at a block's resolution: each dense block's buffer
        # (block input plus every layer's output but the last), and per layer
        # at most three growth-rate maps. Those cover BN's normalized input
        # of every layer, plus per block the last layer's output, the
        # separate block input its first conv reads (up to three growth-rate
        # maps, at the fusion block) and the pooling indices. A per-layer
        # concatenated copy, or a conv or BN output kept alive, breaks the
        # bound.
        k, layers, depth, final = 4, 3, 2, 3
        net = NetworkConfig(growth_rate=k, layers_per_block=layers, depth=depth,
                            final_block_layers=final)
        model = MaskSeparator(net, seed=0)
        n, hw = 2, 128
        x = np.random.default_rng(0).random((n, 1, hw, hw))

        def maps(channels, scale):
            return channels * n * (hw >> scale) ** 2 * x.itemsize

        def block(c_in, n_layers, scale):
            return maps(c_in + (n_layers - 1) * k + 3 * k * n_layers, scale)

        branch = (block(1, layers, 0) + sum(block(k, layers, s) for s in range(1, depth + 1))
                  + sum(block(2 * k, layers, s) for s in range(depth)))
        bound = 3 * branch + block(3 * k, final, 0) + maps(2, 0)  # + the two masks
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            mp, mh = model.forward(Tensor(x), training=True)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert mp.shape == mh.shape == x.shape
        assert held < bound, (held, bound)

    def test_block_inputs_live_only_in_block_buffers(self):
        # The same count as above, without the separate block input: every
        # block copies its parts (a decoder's upsampled map and skip, the
        # fusion block's three branch outputs) straight into its buffer, and
        # its first layer reads that buffer too. Per block the graph may hold
        # the buffer, per layer BN's normalized input (k maps; no layer keeps
        # an activation mask), the block's last output, and after an encoder
        # block the one-byte pooling indices.
        k, layers, depth, final = 4, 3, 2, 3
        net = NetworkConfig(growth_rate=k, layers_per_block=layers, depth=depth,
                            final_block_layers=final)
        model = MaskSeparator(net, seed=0)
        n, hw = 2, 128
        x = np.random.default_rng(0).random((n, 1, hw, hw))

        def maps(channels, scale):
            return channels * n * (hw >> scale) ** 2 * x.itemsize

        def block(c_in, n_layers, scale):
            return maps(c_in + (n_layers - 1) * k + k * n_layers + k, scale)

        branch = (sum(block(1 if s == 0 else k, layers, s) + maps(k, s + 1) / 8
                      for s in range(depth))
                  + block(k, layers, depth) + sum(block(2 * k, layers, s) for s in range(depth)))
        bound = 3 * branch + block(3 * k, final, 0) + maps(2, 0)  # + the two masks
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            mp, mh = model.forward(Tensor(x), training=True)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert mp.shape == mh.shape == x.shape
        assert held < bound, (held, bound)

    def test_dense_layers_keep_one_map_each(self):
        # The same count, for what a block keeps of its layers. Per block the
        # graph may hold the buffer, where the first L - 1 layers' normalized
        # maps wait for backward in place of their activations, the last
        # layer's normalized map and output, and after an encoder block the
        # pooling indices. Once per model it may hold the scratch where each
        # block's normalized maps are made, and where its backward reads
        # them. A layer that keeps its normalized map beside its activation
        # breaks the bound.
        k, layers, depth, final = 4, 3, 2, 3
        net = NetworkConfig(growth_rate=k, layers_per_block=layers, depth=depth,
                            final_block_layers=final)
        model = MaskSeparator(net, seed=0)
        n, hw = 2, 128
        x = np.random.default_rng(0).random((n, 1, hw, hw))

        def maps(channels, scale):
            return channels * n * (hw >> scale) ** 2 * x.itemsize

        def block(c_in, n_layers, scale):
            return maps(c_in + (n_layers - 1) * k + k + k, scale)

        branch = (sum(block(1 if s == 0 else k, layers, s) + maps(k, s + 1) / 8
                      for s in range(depth))
                  + block(k, layers, depth) + sum(block(2 * k, layers, s) for s in range(depth)))
        scratch = maps((max(layers, final) - 1) * k, 0)
        bound = 3 * branch + block(3 * k, final, 0) + scratch + maps(2, 0)  # + the two masks
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            mp, mh = model.forward(Tensor(x), training=True)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert mp.shape == mh.shape == x.shape
        assert held < bound, (held, bound)
