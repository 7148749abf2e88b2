"""Augmentation transforms, coarse dropout, and dataset expansion."""

import numpy as np
import pytest

from capsroute.augment import (
    AugmentConfig,
    AugmentError,
    apply_brightness,
    apply_geometric,
    audit_lineage,
    augment_one,
    coarse_dropout,
    drop_blocks,
    expand_dataset,
)
from capsroute.signal import ChannelSet, Label, SpectrogramImage


def _image(pixels=None, label=Label.ALERT, split=None, subject="s0", seg=0):
    if pixels is None:
        pixels = np.random.default_rng(0).integers(0, 256, size=(32, 32)).astype(np.uint8)
    return SpectrogramImage(np.asarray(pixels, dtype=np.uint8), label, subject, ChannelSet.FZ, seg, split=split)


class TestGeometric:
    def test_identity_parameters_are_bitwise_identity(self):
        px = np.random.default_rng(1).integers(0, 256, size=(32, 32)).astype(np.uint8)
        out = apply_geometric(px, zoom=1.0, shift_cols=0.0, shift_rows=0.0, angle_deg=0.0)
        assert np.array_equal(out, px)

    def test_identity_on_tall_image(self):
        px = np.random.default_rng(2).integers(0, 256, size=(64, 32)).astype(np.uint8)
        out = apply_geometric(px, 1.0, 0.0, 0.0, 0.0)
        assert np.array_equal(out, px)

    def test_pure_integer_shift_translates(self):
        px = np.zeros((8, 8), dtype=np.uint8)
        px[3, 3] = 255
        out = apply_geometric(px, 1.0, 2.0, 0.0, 0.0)  # shift content 2 columns right
        assert out[3, 5] == 255

    def test_border_fill_is_nearest(self):
        px = np.full((8, 8), 200, dtype=np.uint8)
        px[:, 0] = 10
        out = apply_geometric(px, 1.0, 3.0, 0.0, 0.0)
        # content moved right; revealed left columns replicate the border column
        assert (out[:, :3] == 10).all()

    def test_rotation_180_flips(self):
        px = np.arange(64, dtype=np.uint8).reshape(8, 8)
        out = apply_geometric(px, 1.0, 0.0, 0.0, 180.0)
        assert np.array_equal(out, px[::-1, ::-1])

    def test_output_range_preserved(self):
        rng = np.random.default_rng(3)
        px = rng.integers(0, 256, size=(32, 32)).astype(np.uint8)
        out = apply_geometric(px, 0.85, 3.2, -2.7, 9.0)
        assert out.dtype == np.uint8


class TestBrightness:
    def test_half_on_constant(self):
        out = apply_brightness(np.full((32, 32), 200, dtype=np.uint8), 0.5)
        assert (out == 100).all()

    def test_clamps_to_255(self):
        out = apply_brightness(np.full((4, 4), 200, dtype=np.uint8), 1.5)
        assert (out == 255).all()

    def test_unit_factor_identity(self):
        px = np.random.default_rng(4).integers(0, 256, size=(16, 16)).astype(np.uint8)
        assert np.array_equal(apply_brightness(px, 1.0), px)


class TestCoarseDropout:
    def test_counting_oracle_32x32(self):
        # half-res grid 16x16 -> round(0.02 * 256) = 5 blocks -> 20 zeroed pixels
        cfg = AugmentConfig()
        px = np.full((32, 32), 255, dtype=np.uint8)
        out = drop_blocks(px, cfg, np.random.default_rng(5))
        zeroed = int((out == 0).sum())
        assert zeroed == 5 * 4
        assert abs(zeroed / px.size - 0.02) < 0.005

    def test_counting_oracle_64x32(self):
        cfg = AugmentConfig()
        px = np.full((64, 32), 255, dtype=np.uint8)
        out = drop_blocks(px, cfg, np.random.default_rng(6))
        assert int((out == 0).sum()) == round(0.02 * 32 * 16) * 4

    def test_blocks_are_even_aligned_2x2(self):
        cfg = AugmentConfig()
        px = np.full((32, 32), 255, dtype=np.uint8)
        for seed in range(20):
            out = drop_blocks(px, cfg, np.random.default_rng(seed))
            mask = out == 0
            # every zeroed pixel belongs to a fully-zeroed 2x2 block at even coords
            coarse = mask.reshape(16, 2, 16, 2)
            per_block = coarse.sum(axis=(1, 3))
            assert set(np.unique(per_block)) <= {0, 4}
            assert mask.sum() == per_block.sum()

    def test_gate_not_applied_leaves_image_unchanged(self):
        cfg = AugmentConfig()
        img = _image()
        # find a seed whose probability draw fails, then replay it through the op
        for seed in range(100):
            rng = np.random.default_rng(seed)
            p = rng.uniform(*cfg.coarse_apply_prob)
            if rng.random() >= p:
                out = coarse_dropout(img, cfg, np.random.default_rng(seed))
                assert np.array_equal(out.pixels, img.pixels)
                return
        pytest.fail("no non-applying seed found in 100 tries")

    def test_gate_apply_rate_in_configured_band(self):
        cfg = AugmentConfig()
        img = _image(np.full((32, 32), 255, dtype=np.uint8))
        applied = 0
        for seed in range(1000):
            out = coarse_dropout(img, cfg, np.random.default_rng((9, seed)))
            applied += int((out.pixels == 0).any())
        # acceptance probability is uniform in [0.2, 0.5] -> mean 0.35
        assert 0.25 <= applied / 1000 <= 0.45


class TestAugmentOne:
    def test_same_seed_twice_is_identical(self):
        img = _image()
        cfg = AugmentConfig(seed=3)
        a = augment_one(img, cfg, np.random.default_rng(42))
        b = augment_one(img, cfg, np.random.default_rng(42))
        assert np.array_equal(a.pixels, b.pixels)

    def test_label_and_provenance_preserved(self):
        img = _image(label=Label.DROWSY, subject="s9", seg=7)
        out = augment_one(img, AugmentConfig(), np.random.default_rng(1))
        assert out.label == Label.DROWSY
        assert out.subject_id == "s9"
        assert out.segment_index == 7
        assert out.channel_set == img.channel_set

    def test_pixel_range(self):
        img = _image()
        for seed in range(10):
            out = augment_one(img, AugmentConfig(), np.random.default_rng(seed))
            assert out.pixels.dtype == np.uint8


class TestExpandDataset:
    def _train_set(self, n=8):
        rng = np.random.default_rng(7)
        return [
            _image(rng.integers(0, 256, size=(32, 32)).astype(np.uint8), Label.ALERT if i % 2 == 0 else Label.DROWSY, split="train", seg=i)
            for i in range(n)
        ]

    def test_expansion_arithmetic(self):
        images, lineage = expand_dataset(self._train_set(8), AugmentConfig(expansion_factor=3, seed=0))
        assert len(images) == 24
        assert len(lineage) == 16

    def test_factor_one_is_identity(self):
        train = self._train_set(4)
        images, lineage = expand_dataset(train, AugmentConfig(expansion_factor=1, seed=0))
        assert images == train
        assert lineage == []

    def test_class_balance_preserved(self):
        images, _ = expand_dataset(self._train_set(8), AugmentConfig(expansion_factor=4, seed=0))
        alert = sum(1 for i in images if i.label == Label.ALERT)
        assert alert == len(images) // 2

    def test_originals_retained_in_place(self):
        train = self._train_set(4)
        images, _ = expand_dataset(train, AugmentConfig(expansion_factor=2, seed=0))
        for orig, kept in zip(train, images[:4]):
            assert np.array_equal(orig.pixels, kept.pixels)

    def test_test_split_rejected(self):
        bad = self._train_set(3)
        bad[1] = bad[1].copy_with(split="test")
        with pytest.raises(AugmentError):
            expand_dataset(bad, AugmentConfig())

    def test_reproducible_from_seed_alone(self):
        train = self._train_set(6)
        a, _ = expand_dataset(train, AugmentConfig(expansion_factor=3, seed=123))
        b, _ = expand_dataset(train, AugmentConfig(expansion_factor=3, seed=123))
        c, _ = expand_dataset(train, AugmentConfig(expansion_factor=3, seed=124))
        assert all(np.array_equal(x.pixels, y.pixels) for x, y in zip(a, b))
        assert any(not np.array_equal(x.pixels, y.pixels) for x, y in zip(a, c))

    def test_invalid_factor(self):
        with pytest.raises(AugmentError):
            AugmentConfig(expansion_factor=0)


class TestLineage:
    def test_audit_passes_for_train_parents(self):
        train = TestExpandDataset()._train_set(4)
        _, lineage = expand_dataset(train, AugmentConfig(expansion_factor=2, seed=0))
        audit_lineage(lineage, train_indices=[10, 11, 12, 13], test_indices=[0, 1, 2])

    def test_audit_catches_test_parent(self):
        lineage = [{"parent_index": 1, "copy_index": 1, "seed": 0, "parent_path": "x"}]
        with pytest.raises(AugmentError):
            audit_lineage(lineage, train_indices=[10, 3], test_indices=[3])
