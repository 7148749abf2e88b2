"""Training loops, checkpoint persistence, and evaluation."""

import json
import platform
import struct
import subprocess
import sys
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from gradcheck import check_directional
from test_optim import _oracle_step

from capsroute import capsnet, cnn, optim, signal, tensor, training
from capsroute.capsnet import CapsNetParams, capsnet_forward, classify
from capsroute.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from capsroute.cnn import CnnParams
from capsroute.config import TrainConfig
from capsroute.metrics import ConfusionMatrix
from capsroute.mlp import MlpParams
from capsroute.optim import adam_init, adam_step
from capsroute.signal import ChannelSet, Label, SpectrogramImage
from capsroute.tensor import NumericError, Tensor, tensor_fields
from capsroute.training import (
    MODELS,
    TrainingError,
    evaluate,
    images_to_arrays,
    load_model,
    predict,
    save_model,
    train_model,
)


def toy_images(n=20, hw=(12, 12), seed=0):
    """Trivially separable classes: bright top half (Alert) vs bottom half (Drowsy)."""
    rng = np.random.default_rng(seed)
    images = []
    h, w = hw
    for i in range(n):
        label = Label.ALERT if i % 2 == 0 else Label.DROWSY
        px = rng.integers(0, 40, size=hw).astype(np.uint8)
        if label == Label.ALERT:
            px[: h // 2] = rng.integers(180, 255, size=(h // 2, w))
        else:
            px[h // 2 :] = rng.integers(180, 255, size=(h - h // 2, w))
        images.append(SpectrogramImage(px, label, f"s{i % 5}", ChannelSet.FZ, i))  # 5 subjects, each holding both classes
    return images


class TestImagesToArrays:
    def test_stacking_and_labels(self):
        px, lab = images_to_arrays(toy_images(6))
        assert px.shape == (6, 12, 12) and px.dtype == np.uint8
        np.testing.assert_array_equal(lab, [0, 1, 0, 1, 0, 1])

    def test_empty_rejected(self):
        with pytest.raises(TrainingError):
            images_to_arrays([])

    def test_mixed_shapes_rejected(self):
        imgs = toy_images(2) + toy_images(1, hw=(8, 8))
        with pytest.raises(TrainingError):
            images_to_arrays(imgs)


class TestTrainModel:
    def test_mlp_learns_toy_data(self):
        cfg = TrainConfig(kind="mlp", epochs=30, batch_size=8, seed=1)
        params, curve = train_model(toy_images(20), cfg)
        assert len(curve) == 30
        assert all(np.isfinite(row["mean_loss"]) for row in curve)
        assert curve[-1]["train_accuracy"] == 1.0
        assert curve[-1]["mean_loss"] < curve[0]["mean_loss"]

    def test_deterministic_given_seed(self):
        cfg = TrainConfig(kind="mlp", epochs=3, batch_size=8, seed=5)
        imgs = toy_images(12)
        p1, c1 = train_model(imgs, cfg)
        p2, c2 = train_model(imgs, cfg)
        assert c1 == c2
        for (_, a), (_, b) in zip(tensor_fields(p1), tensor_fields(p2)):
            np.testing.assert_array_equal(a.data, b.data)

    def test_early_stop(self):
        cfg = TrainConfig(kind="mlp", epochs=200, batch_size=8, seed=1, early_stop_train_acc=1.0)
        _, curve = train_model(toy_images(20), cfg)
        assert len(curve) < 200
        assert curve[-1]["train_accuracy"] == 1.0

    def test_capsnet_small_run(self):
        cfg = TrainConfig(kind="capsnet", epochs=2, batch_size=4, seed=2)
        params, curve = train_model(toy_images(8, hw=(32, 32)), cfg)
        assert isinstance(params, CapsNetParams)
        assert len(curve) == 2
        assert all(np.isfinite(row["mean_loss"]) for row in curve)

    def test_cnn_small_run(self):
        cfg = TrainConfig(kind="cnn", epochs=2, batch_size=4, seed=3)
        params, curve = train_model(toy_images(8, hw=(32, 32)), cfg)
        assert isinstance(params, CnnParams)
        assert len(curve) == 2

    def test_float32_precision_switch(self):
        cfg = TrainConfig(kind="mlp", epochs=1, batch_size=8, seed=1, precision="float32")
        params, _ = train_model(toy_images(12), cfg)
        assert params.fc1_w.dtype == np.float32

    def test_nan_abort_names_epoch_and_batch(self, monkeypatch):
        init = MlpParams.init

        def poisoned_init(cls, *args, **kwargs):
            params = init(*args, **kwargs)
            params.fc1_w.data[0, 0] = np.inf
            return params

        monkeypatch.setattr(MlpParams, "init", classmethod(poisoned_init))
        cfg = TrainConfig(kind="mlp", epochs=1, batch_size=8, seed=1)
        with pytest.raises(TrainingError, match="epoch 0 batch 0"):
            train_model(toy_images(8), cfg)

    def test_op_poisoned_mid_graph_is_named_after_the_step(self, monkeypatch):
        # a step runs with the per-op checks off; the failed batch reruns with them on to name the op
        real_maxpool2d = cnn.maxpool2d
        calls = []

        def poisoned_maxpool2d(x, window, stride):
            calls.append(len(calls))
            if len(calls) > 3:  # every forward from batch 1 on; a forward pools three times
                x.data[0, 0, 0, 0] = np.inf
            return real_maxpool2d(x, window, stride)

        monkeypatch.setattr(cnn, "maxpool2d", poisoned_maxpool2d)
        cfg = TrainConfig(kind="cnn", epochs=1, batch_size=4, seed=3)
        with pytest.raises(TrainingError, match=r"epoch 0 batch 1: non-finite value produced by op 'maxpool2d'"):
            train_model(toy_images(8, hw=(32, 32)), cfg)
        assert len(calls) == 7  # batch 0's three, batch 1's three unchecked, then the rerun's first
        with pytest.raises(NumericError):  # the eager checks are back on
            Tensor([np.nan])

    def test_gradient_overflowing_in_its_sum_is_named(self, monkeypatch):
        # every op's output and gradient is finite, but out_b's two gradient terms add up to inf
        mlp_loss = MODELS["mlp"].loss

        def overflowing_loss(params, px, labels, dropout_rng):
            loss, preds = mlp_loss(params, px, labels, dropout_rng)
            return loss + (params.out_b * 1e308).sum() + (params.out_b * 1e308).sum(), preds

        monkeypatch.setitem(MODELS, "mlp", replace(MODELS["mlp"], loss=overflowing_loss))
        cfg = TrainConfig(kind="mlp", epochs=1, batch_size=8, seed=1)
        with pytest.raises(TrainingError, match="epoch 0 batch 0: the gradient of out_b"):
            train_model(toy_images(8), cfg)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="model must be one of"):
            TrainConfig(kind="svm")

    @pytest.mark.parametrize(
        "cfg, hw",
        [
            (TrainConfig(kind="mlp", epochs=3, batch_size=8, seed=5), (12, 12)),
            (TrainConfig(kind="capsnet", epochs=2, batch_size=4, seed=2, precision="float32"), (32, 32)),
        ],
        ids=["mlp", "capsnet"],
    )
    def test_in_place_adam_trains_as_a_pure_update_would(self, cfg, hw, tmp_path, monkeypatch):
        # nothing in the loop or the recorded graph may read a parameter after Adam overwrote it
        imgs = toy_images(8, hw=hw)
        shipped, shipped_curve = train_model(imgs, cfg)
        save_model(tmp_path / "in_place.ckpt", shipped)

        named = []  # the trained model's tensors, which the pure step rebinds to its new arrays

        def capture_fields(params):
            named[:] = tensor_fields(params)
            return list(named)

        def pure_adam_step(params, grads, state):
            new_p, new_m, new_v = _oracle_step(params, grads, state)
            for (_, p), d in zip(named, new_p):
                p.data = d
            return new_p, replace(state, first_moment=new_m, second_moment=new_v, step_count=state.step_count + 1)

        monkeypatch.setattr(training, "tensor_fields", capture_fields)
        monkeypatch.setattr(training, "adam_step", pure_adam_step)
        pure, pure_curve = train_model(imgs, cfg)
        save_model(tmp_path / "pure.ckpt", pure)
        assert shipped_curve == pure_curve
        assert (tmp_path / "in_place.ckpt").read_bytes() == (tmp_path / "pure.ckpt").read_bytes()


class TestStepMemory:
    """A train step holds one graph at a time, and backward frees it as it goes."""

    @pytest.mark.parametrize("kind, hw", [("cnn", (64, 32)), ("capsnet", (32, 32))], ids=["cnn-64x32", "capsnet-32x32"])
    def test_memory_held_after_a_step_is_the_gradients(self, kind, hw):
        model = MODELS[kind]
        params = model.params.init(hw, np.random.default_rng(0), np.float32)
        named = tensor_fields(params)
        state = adam_init([p.data for _, p in named], lr=1e-3)
        rng = np.random.default_rng(1)
        pixels = rng.integers(0, 256, size=(4, *hw), dtype=np.uint8)
        labels = np.array([0, 1, 0, 1])

        def step():
            loss, _ = model.loss(params, pixels, labels, rng)
            for _, p in named:
                p.zero_grad()
            loss.backward()
            adam_step([p.data for _, p in named], [p.grad for _, p in named], state)
            return loss

        step()  # first calls fill caches the count should not see
        for _, p in named:
            p.zero_grad()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            loss = step()  # kept, as the train loop keeps it until the next forward
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        grad_bytes = sum(p.grad.nbytes for _, p in named)
        assert loss.grad is not None
        assert held <= 1.01 * grad_bytes, f"{held / 2**20:.2f} MB held after the step for {grad_bytes / 2**20:.2f} MB of gradients"

    @pytest.mark.parametrize(
        "kind, hw, dtype, bound_mb, scratch_mb",
        [
            # measured 36.9 MB; a step that holds each unfold from forward to backward peaks at 75.5 MB
            ("cnn", (64, 32), np.float32, 40, 8.0),  # scratch: the L2 term's squares of fc1_w [512, 4096]
            # measured 54.0 MB; 140.6 MB with the unfolds held
            ("capsnet", (64, 32), np.float64, 64, 7.8),  # scratch: a 6-image block of conv2's rows, [198, 5184]
        ],
        ids=["cnn-64x32-float32", "capsnet-64x32-float64"],
    )
    def test_peak_of_a_warm_batch_32_step(self, kind, hw, dtype, bound_mb, scratch_mb):
        """tracemalloc's peak for a train step at batch 32, not counting the per-thread scratch,
        which the warm-up step allocated at the size of its largest request. The steps run on a
        thread of their own, so that scratch holds no larger request of an earlier test."""
        with ThreadPoolExecutor(max_workers=1) as fresh_thread:
            peak, scratch_bytes = fresh_thread.submit(self._warm_step_peak, kind, hw, dtype).result()
        assert round(scratch_bytes / 2**20, 1) == scratch_mb
        assert peak <= bound_mb * 2**20, f"step peak {peak / 2**20:.1f} MB beside a {scratch_mb} MB scratch"

    def test_predict_scratch_does_not_follow_the_eval_batch(self, monkeypatch):
        """``predict`` of 184 cnn 64x32 float32 images, in batches of ``EVAL_BATCH`` (128), leaves
        its thread a 7.9 MiB scratch, conv1's largest unfold block under ``UNFOLD_BYTES``; unfolded
        a whole batch at a time, conv2 grew it to 72 MiB. Its predictions are those of kernels
        that run the whole batch in one block."""
        params = CnnParams.init((64, 32), np.random.default_rng(0), np.float32)
        pixels = np.random.default_rng(1).integers(0, 256, size=(184, 64, 32), dtype=np.uint8)
        preds, scratch_bytes = self._predict_on_a_fresh_thread(params, pixels)
        assert round(scratch_bytes / 2**20, 1) == 7.9
        assert scratch_bytes <= tensor.UNFOLD_BYTES
        monkeypatch.setattr(tensor, "UNFOLD_BYTES", 2**40)
        monkeypatch.setattr(tensor, "POOL_BYTES", 2**40)
        whole, whole_bytes = self._predict_on_a_fresh_thread(params, pixels)
        assert whole_bytes > 70 * 2**20
        assert 0 < preds.sum() < len(preds)  # both classes, so the comparison can see a change
        np.testing.assert_array_equal(preds, whole)

    @staticmethod
    def _predict_on_a_fresh_thread(params, pixels) -> tuple[np.ndarray, int]:
        """(``predict``'s classes, the bytes of the scratch it leaves its thread)."""

        def run():
            preds = predict(params, pixels)
            return preds, tensor._local.scratch.nbytes

        with ThreadPoolExecutor(max_workers=1) as fresh_thread:
            return fresh_thread.submit(run).result()

    @staticmethod
    def _warm_step_peak(kind, hw, dtype) -> tuple[int, int]:
        """(tracemalloc's peak during a second train step, this thread's scratch bytes)."""
        step = _batch_32_step(kind, hw, dtype)
        loss = step()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            loss = step()
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert loss.grad is not None
        return peak, tensor._local.scratch.nbytes

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the freed heap is kept through glibc's mallopt")
    @pytest.mark.parametrize("kind, hw, dtype", [("cnn", (64, 32), np.float32), ("capsnet", (64, 32), np.float64)], ids=["cnn-64x32-float32", "capsnet-64x32-float64"])
    def test_warm_steps_fault_in_no_new_pages(self, kind, hw, dtype):
        """With the freed heap kept, a warm batch-32 step reuses the pages the last step freed.
        Without it glibc trims them after each step, and a cnn step faults some 6,600 pages in again.

        The steps run in a fresh process, on its main thread. With one arena set, every thread
        allocates from the main arena, whose freed heap is kept; a thread that had allocated
        before that (as any thread of this test process may have) keeps an arena of its own."""
        faults = self._faults_in_fresh_process("_warm_step_faults", kind, hw, dtype)
        assert np.median(faults) <= 256, f"minor page faults per warm step: {faults}"

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the freed heap is kept through glibc's mallopt")
    def test_warm_steps_on_a_fold_thread_fault_in_no_new_pages(self):
        """The same on a thread started after the heap is kept, as stage_train starts its fold
        threads. On an arena of its own, a warm cnn step faulted some 4,400 pages in again."""
        faults = self._faults_in_fresh_process("_warm_step_faults_on_a_fold_thread", "cnn", (64, 32), np.float32)
        assert np.median(faults) <= 256, f"minor page faults per warm step: {faults}"

    @staticmethod
    def _faults_in_fresh_process(helper, kind, hw, dtype) -> list[int]:
        child = f"import json, sys; sys.path[:0] = json.loads(sys.argv[1]); from test_training import {helper}; print(json.dumps({helper}(*json.loads(sys.argv[2]))))"
        args = json.dumps([kind, hw, np.dtype(dtype).name])
        run = subprocess.run([sys.executable, "-c", child, json.dumps(sys.path), args], capture_output=True, text=True, encoding="utf-8")
        assert run.returncode == 0, run.stderr
        return json.loads(run.stdout)


def _warm_step_faults(kind, hw, dtype) -> list[int]:
    """Minor page faults in each of five batch-32 train steps that follow two warm-up steps, with the freed heap kept."""
    import resource

    training._keep_freed_heap()
    step = _batch_32_step(kind, tuple(hw), dtype)
    step(), step()
    faults = []
    for _ in range(5):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        step()
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    return faults


def _warm_step_faults_on_a_fold_thread(kind, hw, dtype) -> list[int]:
    """``_warm_step_faults`` on a pool thread started after the freed heap is kept, as stage_train starts fold threads."""
    training._keep_freed_heap()
    with ThreadPoolExecutor(max_workers=1) as fold_thread:
        return fold_thread.submit(_warm_step_faults, kind, hw, dtype).result()


def _batch_32_step(kind, hw, dtype):
    """One train step of a fresh model at batch 32, as train_model runs it: the last step's
    gradients go before the forward, and Adam updates the parameters in place."""
    model = MODELS[kind]
    params = model.params.init(hw, np.random.default_rng(0), dtype)
    named = tensor_fields(params)
    state = adam_init([p.data for _, p in named], lr=1e-3)
    rng = np.random.default_rng(1)
    pixels = rng.integers(0, 256, size=(32, *hw), dtype=np.uint8)
    labels = rng.integers(0, 2, size=32)

    def step():
        for _, p in named:
            p.zero_grad()
        loss, _ = model.loss(params, pixels, labels, rng)
        loss.backward()
        adam_step([p.data for _, p in named], [p.grad for _, p in named], state)
        return loss

    return step


def _graph(root: Tensor) -> list[Tensor]:
    """Every tensor a recorded computation reaches from ``root``."""
    seen, stack, nodes = set(), [root], []
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            nodes.append(node)
            stack.extend(node._parents)
    return nodes


def _closure_arrays(fn) -> list[np.ndarray]:
    """The arrays a backward closure keeps, in its cells and default arguments."""
    kept = [cell.cell_contents for cell in fn.__closure__ or ()] + list(fn.__defaults__ or ())
    return [value for value in kept if isinstance(value, np.ndarray)]


class TestScratchNeverEscapes:
    """No tensor's data or gradient, no array a backward closure keeps and no array a model
    returns is a view of the per-thread scratch, which the next kernel call overwrites."""

    @pytest.mark.parametrize("hw", [(32, 32), (64, 32)], ids=["32x32", "64x32"])
    @pytest.mark.parametrize("kind", ["capsnet", "cnn", "mlp"])
    def test_forward_backward_and_predict(self, kind, hw, monkeypatch):
        model = MODELS[kind]
        params = model.params.init(hw, np.random.default_rng(0), np.float32)
        rng = np.random.default_rng(1)
        pixels = rng.integers(0, 256, size=(4, *hw), dtype=np.uint8)
        labels = np.array([0, 1, 1, 0])
        model.loss(params, pixels, labels, rng)[0].backward()  # grows the scratch to its largest
        predict(params, pixels)
        for _, p in tensor_fields(params):
            p.zero_grad()
        tensor._scratch((1,), np.uint8)  # the mlp's kernels use none; this thread's buffer exists either way
        scratch = tensor._local.scratch

        def escaped(arrays):
            return [a.shape for a in arrays if a is not None and np.shares_memory(a, scratch)]

        accumulate = Tensor._accumulate
        stored = []

        def checked_accumulate(self, grad, op, **kwargs):
            accumulate(self, grad, op, **kwargs)
            stored.extend(escaped([self.grad]))

        monkeypatch.setattr(Tensor, "_accumulate", checked_accumulate)
        loss, preds = model.loss(params, pixels, labels, rng)
        nodes = _graph(loss)
        assert escaped([node.data for node in nodes]) == []
        assert escaped([a for node in nodes if node._backward_fn for a in _closure_arrays(node._backward_fn)]) == []
        assert escaped([preds]) == []
        loss.backward()
        assert stored == [], "a gradient was stored in the scratch while backward ran"
        assert escaped([node.grad for node in nodes]) == []
        assert escaped([predict(params, pixels), model.predict(params, pixels)]) == []
        assert tensor._local.scratch is scratch  # never regrown, so no view of an older buffer hides


MLP_4X4 = {"arch": "mlp-v1", "input_hw": [4, 4], "hidden": 512, "dtype": "float64"}
CAPSNET_32X32 = CapsNetParams.init((32, 32)).fingerprint()


class TestFixedSettings:
    def test_paper_values(self):
        # Adam's defaults (Kingma & Ba), the paper's 512-sample STFT window at 50% overlap, and predict's batch
        fixed = (optim.BETA1, optim.BETA2, optim.EPS, signal.STFT_WINDOW, signal.STFT_HOP, training.EVAL_BATCH)
        assert fixed == (0.9, 0.999, 1e-8, 512, 256, 128)


class TestCheckpoints:
    def test_roundtrip_all_kinds(self, tmp_path):
        for kind, hw in (("capsnet", (32, 32)), ("cnn", (64, 32)), ("mlp", (32, 32))):
            params = MODELS[kind].params.init(hw, np.random.default_rng(4))
            path = tmp_path / f"{kind}.ckpt"
            save_model(path, params)
            loaded_kind, loaded = load_model(path)
            assert loaded_kind == kind
            for (name, a), (_, b) in zip(tensor_fields(params), tensor_fields(loaded)):
                np.testing.assert_array_equal(a.data, b.data, err_msg=name)

    def test_predictions_survive_roundtrip(self, tmp_path):
        cfg = TrainConfig(kind="mlp", epochs=5, batch_size=8, seed=6)
        imgs = toy_images(12)
        params, _ = train_model(imgs, cfg)
        px, _ = images_to_arrays(imgs)
        before = predict(params, px)
        save_model(tmp_path / "m.ckpt", params)
        _, loaded = load_model(tmp_path / "m.ckpt")
        np.testing.assert_array_equal(before, predict(loaded, px))

    def test_bad_magic_refused(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"not a checkpoint at all")
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_float32_roundtrip(self, tmp_path):
        params = MlpParams.init((12, 12), np.random.default_rng(8), dtype=np.float32)
        save_model(tmp_path / "m.ckpt", params)
        _, loaded = load_model(tmp_path / "m.ckpt")
        assert loaded.fc1_w.dtype == np.float32
        np.testing.assert_array_equal(params.fc1_w.data, loaded.fc1_w.data)

    def test_raw_container_roundtrip(self, tmp_path):
        rng = np.random.default_rng(9)
        tensors = {"a": rng.normal(size=(3, 4)), "b": rng.normal(size=7).astype(np.float32)}
        fingerprint = {"arch": "test-v1", "anything": [1, 2]}
        save_checkpoint(tmp_path / "c.bin", tensors, fingerprint)
        arrays, fp = load_checkpoint(tmp_path / "c.bin")
        assert fp == fingerprint
        np.testing.assert_array_equal(arrays["a"], tensors["a"])
        np.testing.assert_array_equal(arrays["b"], tensors["b"])

    @pytest.mark.parametrize("earlier", [True, False], ids=["over-a-checkpoint", "fresh"])
    def test_save_failing_part_way_leaves_no_partial_file(self, tmp_path, monkeypatch, earlier):
        path = tmp_path / "c.ckpt"
        if earlier:
            save_checkpoint(path, {"a": np.arange(3.0), "b": np.ones((2, 2))}, {"run": 1})
            before = path.read_bytes()

        class DiskFullAtSecondTensor:
            """A file whose fifth write fails: the magic, header length, header and first tensor go through."""

            def __init__(self, fh):
                self.fh, self.writes = fh, 0

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, data):
                self.writes += 1
                if self.writes == 5:
                    raise OSError("disk full")
                return self.fh.write(data)

        monkeypatch.setattr(signal, "open", lambda *args, **kwargs: DiskFullAtSecondTensor(open(*args, **kwargs)), raising=False)
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(path, {"a": np.zeros(3), "b": np.zeros((2, 2))}, {"run": 2})
        assert [p.name for p in tmp_path.iterdir()] == (["c.ckpt"] if earlier else [])  # no .tmp left
        if earlier:
            assert path.read_bytes() == before

    @pytest.mark.parametrize(
        "cut",
        [
            pytest.param(lambda raw: raw[:12], id="inside-header-length"),
            pytest.param(lambda raw: raw[:40], id="inside-header"),
            pytest.param(lambda raw: raw[:-5], id="inside-tensor"),
        ],
    )
    def test_truncated_file_refused(self, tmp_path, cut):
        path = tmp_path / "m.ckpt"
        save_model(path, MlpParams.init((4, 4), np.random.default_rng(1)))
        path.write_bytes(cut(path.read_bytes()))
        with pytest.raises(CheckpointError, match="truncated"):
            load_model(path)

    @pytest.mark.parametrize(
        "header, match",
        [
            ({"version": 1, "tensors": {}}, "lacks a fingerprint"),
            ({"version": 1, "fingerprint": [1], "tensors": {}}, "lacks a fingerprint"),
            ({"version": 1, "fingerprint": {"arch": "mlp-v1", "dtype": "float64"}, "tensors": {}}, "input_hw"),
            ({"version": 1, "fingerprint": {"arch": "mlp-v1", "dtype": "float64", "input_hw": [4, 4], "hidden": "x"}, "tensors": {}}, "hidden"),
            ({"version": 1, "fingerprint": {"arch": "capsnet-v2", "dtype": "float32", "input_hw": [32, 32]}, "tensors": {}}, "conv1"),
            ({"version": 1, "fingerprint": {"arch": ["mlp-v1"]}, "tensors": {}}, "unknown architecture"),
            (
                {
                    "version": 1,
                    "fingerprint": {
                        "arch": "capsnet-v2", "dtype": "float32", "input_hw": [32, 32], "conv1": [64, 5, 5, 1, 2],
                        "conv2": [128, 9, 9, 64, 2], "capsule_dim": 7, "secondary_dim": 10, "decoder_hidden": [512, 1024],
                        "routing_iterations": 3,
                    },
                    "tensors": {},
                },
                "capsule_dim",
            ),
            (
                {"version": 1, "fingerprint": {}, "tensors": {"w": {"dtype": "<f8", "shape": [3, 4], "offset": 0, "nbytes": 8}}},
                "does not fit shape",
            ),
            ({"version": 1, "fingerprint": MLP_4X4, "tensors": {}}, "missing tensor 'fc1_w'"),
            (
                {"version": 1, "fingerprint": MLP_4X4, "tensors": {"fc1_w": {"dtype": "<f8", "shape": [1], "offset": 0, "nbytes": 8}}},
                "'fc1_w' has shape .* expected",
            ),
            ({"version": 1, "fingerprint": {**MLP_4X4, "hidden_layers": 2}, "tensors": {}}, "hidden_layers"),
            # fingerprints are compared as JSON values: 512.0 is not 512, nor true 1
            ({"version": 1, "fingerprint": {**MLP_4X4, "hidden": 512.0}, "tensors": {}}, "differs in: hidden$"),
            ({"version": 1, "fingerprint": {**CAPSNET_32X32, "conv1": [64, 5, 5, True, 2]}, "tensors": {}}, "differs in: conv1$"),
            ({"version": 1, "fingerprint": {**MLP_4X4, "input_hw": [4, True]}, "tensors": {}}, "input_hw"),
        ],
    )
    def test_malformed_header_refused(self, tmp_path, header, match):
        body = json.dumps(header).encode()
        path = tmp_path / "m.ckpt"
        path.write_bytes(b"CRCKPT01" + struct.pack("<Q", len(body)) + body + bytes(8))
        with pytest.raises(CheckpointError, match=match):
            load_model(path)

    def test_stored_fingerprint_format_loads(self, tmp_path):
        # the cnn-v2 fingerprint exactly as existing checkpoints store it
        fp = {"arch": "cnn-v2", "input_hw": [64, 32], "filters": [32, 64, 128], "fc_hidden": 512, "pool_window": [4, 2], "dropout_keep": 0.5, "l2_beta": 0.001, "dtype": "float32"}
        params = CnnParams.init((64, 32), np.random.default_rng(2), dtype=np.float32)
        assert params.fingerprint() == fp
        save_checkpoint(tmp_path / "c.ckpt", {n: p.data for n, p in tensor_fields(params)}, fp)
        kind, loaded = load_model(tmp_path / "c.ckpt")
        assert kind == "cnn"
        np.testing.assert_array_equal(loaded.fc1_w.data, params.fc1_w.data)

    def test_tensor_wider_than_the_model_dtype_refused(self, tmp_path):
        # cast to float32, 1e300 would become inf after the finiteness check, with a NumPy warning
        params = MlpParams.init((4, 4), np.random.default_rng(6), dtype=np.float32)
        arrays = {name: p.data.astype(np.float64) for name, p in tensor_fields(params)}
        arrays["fc1_w"][0, 0] = 1e300
        save_checkpoint(tmp_path / "m.ckpt", arrays, params.fingerprint())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(CheckpointError, match="'fc1_w' has shape .* of float64, expected .* of float32"):
                load_model(tmp_path / "m.ckpt")

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    @pytest.mark.parametrize(
        "kind, hw, fp",
        [
            (
                "capsnet", (32, 32),
                {"arch": "capsnet-v2", "input_hw": [32, 32], "conv1": [64, 5, 5, 1, 2], "conv2": [128, 9, 9, 64, 2], "capsule_dim": 16,
                 "secondary_dim": 10, "num_primary": 72, "decoder_hidden": [512, 1024], "routing_iterations": 5},
            ),
            (
                "capsnet", (64, 32),
                {"arch": "capsnet-v2", "input_hw": [64, 32], "conv1": [64, 5, 5, 1, 2], "conv2": [128, 9, 9, 64, 2], "capsule_dim": 16,
                 "secondary_dim": 10, "num_primary": 264, "decoder_hidden": [512, 1024], "routing_iterations": 5},
            ),
            (
                "cnn", (64, 32),
                {"arch": "cnn-v2", "input_hw": [64, 32], "filters": [32, 64, 128], "fc_hidden": 512, "pool_window": [4, 2],
                 "dropout_keep": 0.5, "l2_beta": 0.001},
            ),
            ("mlp", (64, 32), {"arch": "mlp-v1", "input_hw": [64, 32], "hidden": 512}),
        ],
        ids=["capsnet-32x32", "capsnet-64x32", "cnn-64x32", "mlp-64x32"],
    )
    def test_paper_fingerprint_is_pinned(self, tmp_path, kind, hw, fp, dtype):
        # the fingerprints checkpoints already on disk store; a change here orphans them
        fp = {**fp, "dtype": dtype}
        params = MODELS[kind].params.init(hw, np.random.default_rng(5), dtype=getattr(np, dtype))
        assert params.fingerprint() == fp
        save_checkpoint(tmp_path / "c.ckpt", {n: p.data for n, p in tensor_fields(params)}, fp)
        loaded_kind, loaded = load_model(tmp_path / "c.ckpt")
        assert loaded_kind == kind and loaded.fingerprint() == fp
        for (name, a), (_, b) in zip(tensor_fields(params), tensor_fields(loaded)):
            np.testing.assert_array_equal(a.data, b.data, err_msg=name)

    @pytest.mark.parametrize("setting", [{"dropout_keep": 0.7}, {"l2_beta": 0.01}], ids=["dropout_keep", "l2_beta"])
    def test_cnn_checkpoint_with_other_head_settings_refused(self, tmp_path, setting):
        # the head settings are fixed: a checkpoint trained with others is not this model
        params = CnnParams.init((8, 8), np.random.default_rng(2))
        save_checkpoint(tmp_path / "c.ckpt", {n: p.data for n, p in tensor_fields(params)}, {**params.fingerprint(), **setting})
        with pytest.raises(CheckpointError, match=f"differs in: {next(iter(setting))}$"):
            load_model(tmp_path / "c.ckpt")

    @settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_damaged_checkpoint_loads_or_raises_checkpoint_error(self, tmp_path, data):
        path = tmp_path / "m.ckpt"
        save_model(path, MlpParams.init((4, 4), np.random.default_rng(3)))
        raw = path.read_bytes()
        # the magic, the header length, the JSON header and the first tensor's first bytes
        region = 16 + struct.unpack("<Q", raw[8:16])[0] + 64
        if data.draw(st.booleans(), label="truncate"):
            damaged = raw[: data.draw(st.integers(0, region - 1), label="length")]
        else:
            at = data.draw(st.integers(0, region - 1), label="offset")
            damaged = raw[:at] + bytes([data.draw(st.integers(0, 255), label="byte")]) + raw[at + 1 :]
        path.write_bytes(damaged)
        try:
            load_model(path)
        except CheckpointError:
            pass


class TestEvaluate:
    def test_counts_sum_to_test_size(self):
        cfg = TrainConfig(kind="mlp", epochs=10, batch_size=8, seed=10)
        imgs = toy_images(20)
        params, _ = train_model(imgs, cfg)
        cm = evaluate(params, toy_images(10, seed=99))
        assert cm.total == 10

    def test_trained_model_separates_toy_classes(self):
        cfg = TrainConfig(kind="mlp", epochs=30, batch_size=8, seed=11)
        params, _ = train_model(toy_images(20), cfg)
        cm = evaluate(params, toy_images(12, seed=50))
        assert cm.fn == 0 and cm.fp == 0

    def test_evaluate_from_checkpoint_path(self, tmp_path):
        cfg = TrainConfig(kind="mlp", epochs=5, batch_size=8, seed=12)
        params, _ = train_model(toy_images(12), cfg)
        save_model(tmp_path / "m.ckpt", params)
        direct = evaluate(params, toy_images(8, seed=60))
        via_path = evaluate(load_model(tmp_path / "m.ckpt")[1], toy_images(8, seed=60))
        assert direct == via_path

    def test_capsnet_predict_never_decodes(self, monkeypatch):
        """Class scores come from capsule lengths alone; 130 images cross predict's 128-image batch."""
        params = CapsNetParams.init((32, 32), np.random.default_rng(14), np.float32)
        pixels = np.random.default_rng(15).integers(0, 256, size=(130, 32, 32), dtype=np.uint8)
        want = {n: classify(capsnet_forward(pixels[:n], params, np.zeros(n, dtype=np.int64))[0])[1] for n in (1, 36, 130)}

        def no_decoder(*args, **kwargs):
            raise AssertionError("predict ran the decoder")

        monkeypatch.setattr(capsnet, "decode", no_decoder)
        for n, classes in want.items():
            np.testing.assert_array_equal(predict(params, pixels[:n]), classes, err_msg=f"{n} images")

    def test_constant_classifier_sensitivity_specificity(self):
        # zero weights and a positive Drowsy bias predict Drowsy for everything
        params = MlpParams.init((12, 12), np.random.default_rng(14))
        for _, p in tensor_fields(params):
            p.data = np.zeros_like(p.data)
        params.out_b.data = np.array([0.0, 1.0])
        cm = evaluate(params, toy_images(10))
        assert cm.tp == 5 and cm.fn == 0 and cm.tn == 0 and cm.fp == 5
        assert cm.tp / (cm.tp + cm.fn) == 1.0  # sensitivity
        assert cm.tn / max(cm.tn + cm.fp, 1) == 0.0  # specificity

    def test_perfect_labels_give_zero_errors(self):
        cm = ConfusionMatrix(tp=5, fn=0, fp=0, tn=5)
        assert cm.fn == 0 and cm.fp == 0


class TestGradientsAtTrainedWidths:
    """Each model as it trains, at full width and batch 2 in float64, through its MODELS loss adapter."""

    @pytest.mark.parametrize(
        "kind, hw", [("capsnet", (32, 32)), ("capsnet", (64, 32)), ("cnn", (64, 32)), ("mlp", (64, 32))], ids=["capsnet-32x32", "capsnet-64x32", "cnn-64x32", "mlp-64x32"]
    )
    def test_directional_central_differences(self, kind, hw):
        params = MODELS[kind].params.init(hw, np.random.default_rng(0), np.float64)
        rng = np.random.default_rng(0)
        pixels = rng.integers(0, 256, size=(2, *hw), dtype=np.uint8)
        labels = np.array([0, 1])

        def loss_fn():  # a fresh fixed-seed rng per call: the cnn drops the same units every time
            return MODELS[kind].loss(params, pixels, labels, np.random.default_rng(7))[0]

        check_directional(loss_fn, tensor_fields(params), rng)
