"""Signal pipeline: segmentation, spectrograms, imaging, labeling, synthesis, IO."""

import filecmp
import re
import shutil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capsroute import signal
from capsroute.signal import (
    SAMPLE_RATE,
    SEGMENT_SAMPLES,
    Channel,
    ChannelSet,
    EegRecording,
    Label,
    PipelineError,
    Pvt,
    SpectrogramImage,
    build_dataset,
    build_synth_corpus,
    label_from_kss,
    load_dataset,
    load_recording,
    load_recordings_manifest,
    read_pgm,
    read_rows,
    resample_bilinear,
    save_recording,
    segment,
    stft_frame_count,
    stft_magnitudes,
    stft_spectrogram,
    synth_eeg,
    to_grayscale_image,
    write_dataset,
    write_pgm,
    write_rows,
)


def _recording(samples, kss=3, pvt=Pvt.PVT1, channel=Channel.FZ, subject="s0"):
    return EegRecording(subject_id=subject, pvt=pvt, channel=channel, samples=samples, kss=kss)


def _segment_of(samples):
    return np.asarray(samples, dtype=np.float64)


def _synth_pair(label, seed, seconds):
    return synth_eeg(label, seed, seconds, Channel.FZ), synth_eeg(label, seed, seconds, Channel.PZ)


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------


def naive_dft_magnitudes(samples, window=512, hop=256, max_bin=20):
    """Direct DFT-sum computation of the windowed magnitudes (no FFT)."""
    n_frames = (len(samples) - window) // hop + 1
    win = np.hanning(window)
    k = np.arange(max_bin + 1)
    n = np.arange(window)
    dft = np.exp(-2j * np.pi * np.outer(k, n) / window)
    out = np.zeros((max_bin + 1, n_frames))
    for f in range(n_frames):
        frame = samples[f * hop : f * hop + window] * win
        out[:, f] = np.abs(dft @ frame)
    return out


def direct_band_component(rng, band, amplitude, n):
    """One sine per sample: the definition the angle-addition kernel must reproduce."""
    t = np.arange(n) / SAMPLE_RATE
    k = 8
    freqs = rng.uniform(band[0], band[1], size=k)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=k)
    parts = np.sin(2.0 * np.pi * freqs[:, None] * t[None, :] + phases[:, None])
    return (amplitude / np.sqrt(k)) * parts.sum(axis=0)


def band_psd(samples, lo, hi):
    """Mean periodogram power over [lo, hi] Hz (independent of the STFT path)."""
    spec = np.abs(np.fft.rfft(samples)) ** 2 / len(samples)
    freqs = np.fft.rfftfreq(len(samples), d=1.0 / SAMPLE_RATE)
    mask = (freqs >= lo) & (freqs < hi)
    return spec[mask].mean()


# ---------------------------------------------------------------------------
# segmentation
# ---------------------------------------------------------------------------


class TestSegment:
    def test_ten_minutes_gives_46_segments(self):
        rec = _recording(np.zeros(307200))
        assert len(segment(rec)) == 307200 // SEGMENT_SAMPLES == 46

    def test_exact_window_boundary(self):
        assert segment(_recording(np.zeros(SEGMENT_SAMPLES))).shape == (1, SEGMENT_SAMPLES)
        assert segment(_recording(np.zeros(SEGMENT_SAMPLES - 1))).shape == (0, SEGMENT_SAMPLES)

    def test_windows_are_consecutive_and_disjoint(self):
        samples = np.arange(3 * SEGMENT_SAMPLES + 100, dtype=np.float64)
        rec = _recording(samples)
        segs = segment(rec)
        assert segs.shape == (3, SEGMENT_SAMPLES)
        assert np.shares_memory(segs, rec.samples)  # a view, not a copy
        for i, row in enumerate(segs):
            np.testing.assert_array_equal(row, samples[i * SEGMENT_SAMPLES : (i + 1) * SEGMENT_SAMPLES])

    def test_recording_validation(self):
        with pytest.raises(PipelineError):
            _recording(np.zeros(10), kss=0)
        with pytest.raises(PipelineError):
            EegRecording("s", Pvt.PVT1, Channel.FZ, np.zeros((2, 5)), 3)


# ---------------------------------------------------------------------------
# STFT
# ---------------------------------------------------------------------------


class TestStft:
    def test_matches_naive_dft(self):
        rng = np.random.default_rng(0)
        for _ in range(3):
            samples = rng.normal(scale=0.01, size=SEGMENT_SAMPLES)
            got = stft_magnitudes(samples)
            want = naive_dft_magnitudes(samples)
            rel = np.abs(got - want) / np.maximum(np.abs(want), 1e-300)
            assert rel.max() < 1e-9

    def test_pure_10hz_peaks_at_bin_10_every_frame(self):
        t = np.arange(SEGMENT_SAMPLES) / SAMPLE_RATE
        spec = stft_spectrogram(_segment_of(0.005 * np.sin(2 * np.pi * 10.0 * t)))
        assert spec.shape == (21, 25)
        assert (spec.argmax(axis=0) == 10).all()

    def test_zero_segment_is_uniform_floor(self):
        spec = stft_spectrogram(_segment_of(np.zeros(SEGMENT_SAMPLES)))
        np.testing.assert_array_equal(spec, np.full((21, 25), -80.0))

    def test_output_dims(self):
        spec = stft_spectrogram(_segment_of(np.random.default_rng(1).normal(size=SEGMENT_SAMPLES)))
        assert spec.shape == (21, 25)

    def test_wrong_length_rejected(self):
        for shape in ((6000,), (2, 6000), (SEGMENT_SAMPLES, 2), ()):
            with pytest.raises(PipelineError, match="exactly 6656 samples"):
                stft_spectrogram(np.zeros(shape))

    def test_stack_equals_each_segment_alone(self):
        # both classes and both channels; one stack per recording and one across all of them
        recs = [r for label in Label for r in _synth_pair(label, 3, 3 * 13.0)]
        stacks = [segment(r) for r in recs]
        for stack in stacks + [np.stack(stacks)]:
            spec = stft_spectrogram(stack)
            img = to_grayscale_image(spec)
            assert spec.shape == stack.shape[:-1] + (21, 25) and img.shape == stack.shape[:-1] + (32, 32)
            for idx in np.ndindex(stack.shape[:-1]):
                alone = stft_spectrogram(stack[idx])
                np.testing.assert_array_equal(spec[idx], alone)
                np.testing.assert_array_equal(img[idx], to_grayscale_image(alone))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(512, 20000))
    def test_frame_count_closed_form(self, n):
        mags = stft_magnitudes(np.zeros(n))
        assert mags.shape == (21, (n - 512) // 256 + 1)
        assert stft_frame_count(n) == (n - 512) // 256 + 1

    def test_unit_sinusoid_energy_concentrates(self):
        # Hann leakage: >= 80% of STFT energy within the sinusoid's bin +- 1
        t = np.arange(SEGMENT_SAMPLES) / SAMPLE_RATE
        for f0 in (6, 10, 15):
            samples = np.sin(2 * np.pi * f0 * t)
            full = stft_magnitudes(samples, max_bin=256)
            energy = full**2
            near = energy[f0 - 1 : f0 + 2].sum()
            assert near / energy.sum() >= 0.80
            naive = naive_dft_magnitudes(samples, max_bin=256)
            np.testing.assert_allclose(full, naive, rtol=1e-9, atol=1e-9 * full.max())


# ---------------------------------------------------------------------------
# imaging
# ---------------------------------------------------------------------------


class TestGrayscaleImage:
    def test_constant_matrix_gives_constant_image(self):
        img = to_grayscale_image(np.full((21, 25), -40.0))
        assert img.shape == (32, 32)
        assert (img == img[0, 0]).all()
        assert img[0, 0] == round(0.5 * 255)

    def test_floor_maps_to_zero(self):
        img = to_grayscale_image(np.full((21, 25), -80.0))
        assert (img == 0).all()

    def test_monotone_rows_stay_monotone_after_resize(self):
        # ramp along frequency: row r has value proportional to r
        ramp = np.tile(np.linspace(-80.0, 0.0, 21)[:, None], (1, 25))
        img = to_grayscale_image(ramp)
        # frequency increases upward, so pixel columns must decrease downward
        for col in range(32):
            assert (np.diff(img[:, col].astype(int)) <= 0).all()
        assert img[0, 0] > img[-1, 0]

    def test_resample_bilinear_identity(self):
        m = np.random.default_rng(2).normal(size=(5, 7))
        np.testing.assert_allclose(resample_bilinear(m, 5, 7), m, atol=1e-12)

    def test_resample_bilinear_against_interp(self):
        # 1-D cross-check per row against numpy interp on the same grid
        m = np.random.default_rng(3).normal(size=(1, 9))
        out = resample_bilinear(m, 1, 17)
        want = np.interp(np.linspace(0, 8, 17), np.arange(9), m[0])
        np.testing.assert_allclose(out[0], want, atol=1e-12)

    def test_pixel_range(self):
        rng = np.random.default_rng(4)
        img = to_grayscale_image(rng.uniform(-120, 40, size=(21, 25)))
        assert img.dtype == np.uint8 and img.min() >= 0 and img.max() <= 255


class TestConcatVertical:
    """FzPz images stack the Fz image on top of the Pz image of the same segment."""

    def _fzpz_and_halves(self, label, seed):
        fz, pz = _synth_pair(label, seed, 2 * 13.0 + 1.0)
        fzpz = build_dataset([pz, fz], ChannelSet.FZPZ)
        fz_images = to_grayscale_image(stft_spectrogram(segment(fz)))
        pz_images = to_grayscale_image(stft_spectrogram(segment(pz)))
        return fz, pz, fzpz, fz_images, pz_images

    def test_stacking_order(self):
        # Fz on top, Pz below, each the image of that recording's own segment
        for label, seed in ((Label.ALERT, 4), (Label.DROWSY, 5)):
            fz, pz, fzpz, fz_images, pz_images = self._fzpz_and_halves(label, seed)
            assert [i.segment_index for i in fzpz] == [0, 1]
            assert all((i.label, i.subject_id, i.channel_set) == (label, fz.subject_id, ChannelSet.FZPZ) for i in fzpz)
            for img, top, bottom in zip(fzpz, fz_images, pz_images, strict=True):
                assert img.pixels.shape == (64, 32)
                np.testing.assert_array_equal(img.pixels[:32], top)
                np.testing.assert_array_equal(img.pixels[32:], bottom)
            for img, fz_img in zip(fzpz, build_dataset([fz, pz], ChannelSet.FZ), strict=True):
                np.testing.assert_array_equal(img.pixels[:32], fz_img.pixels)

    def test_asymmetry(self):
        # the halves differ, so a Pz-on-top stack is a different image
        for label, seed in ((Label.ALERT, 4), (Label.DROWSY, 5)):
            _, _, fzpz, fz_images, pz_images = self._fzpz_and_halves(label, seed)
            for img, top, bottom in zip(fzpz, fz_images, pz_images, strict=True):
                assert not np.array_equal(top, bottom)
                assert not np.array_equal(img.pixels, np.concatenate([bottom, top], axis=0))


# ---------------------------------------------------------------------------
# labeling
# ---------------------------------------------------------------------------


class TestLabelFromKss:
    def test_paper_rule(self):
        assert label_from_kss(3, Pvt.PVT1) == Label.ALERT
        assert label_from_kss(8, Pvt.PVT3) == Label.DROWSY

    def test_exclusions(self):
        assert label_from_kss(5, Pvt.PVT1) is None
        assert label_from_kss(8, Pvt.PVT2) is None

    def test_total_on_domain(self):
        for kss in range(1, 10):
            for pvt in Pvt:
                result = label_from_kss(kss, pvt)
                assert result in (None, Label.ALERT, Label.DROWSY)

    def test_out_of_range(self):
        with pytest.raises(PipelineError):
            label_from_kss(0, Pvt.PVT1)
        with pytest.raises(PipelineError):
            label_from_kss(10, Pvt.PVT3)


# ---------------------------------------------------------------------------
# synthesis
# ---------------------------------------------------------------------------


class TestBandComponent:
    @pytest.mark.parametrize("seconds", [13.0, 13.3, 120.0])  # a multiple of the angle block, not one, 2 min
    def test_matches_direct_sines(self, seconds):
        n = int(round(seconds * SAMPLE_RATE))
        amplitude = 0.006
        for seed in range(20):
            for band in (signal._THETA_BAND, signal._ALPHA_BAND, signal._BETA_BAND):
                rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
                got = signal._band_component(rng, band, amplitude, n)
                want = direct_band_component(oracle_rng, band, amplitude, n)
                assert got.shape == (n,)
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-10 * amplitude)
                assert rng.random() == oracle_rng.random()  # the stream is left where the oracle leaves it

    def test_corpus_images_equal_direct_sines(self, tmp_path, monkeypatch):
        """The kernel's last-bit differences from the direct sines never reach a pixel."""
        corpora = {}
        for name in ("direct", "kernel"):
            with monkeypatch.context() as patch:
                if name == "direct":
                    patch.setattr(signal, "_band_component", direct_band_component)
                corpora[name] = load_recordings_manifest(build_synth_corpus(tmp_path / name, 2, 2, 1.0, seed=5))
        for channel_set in ChannelSet:
            dirs = [write_dataset(build_dataset(corpora[name], channel_set), tmp_path / f"{name}_{channel_set.value}").parent
                    for name in ("direct", "kernel")]
            names = sorted(p.name for p in dirs[0].iterdir())
            assert len(names) == 8 * 2 + 1  # 4 Fz recordings x 2 segments, plus dataset.csv
            assert names == sorted(p.name for p in dirs[1].iterdir())
            match, mismatch, errors = filecmp.cmpfiles(dirs[0], dirs[1], names, shallow=False)
            assert (mismatch, errors) == ([], [])


class TestSynthEeg:
    def test_drowsy_theta_dominates_alpha(self):
        for seed in (1, 2, 3):
            rec = synth_eeg(Label.DROWSY, seed, 26.0)
            assert band_psd(rec.samples, 4, 8) > band_psd(rec.samples, 8, 13)

    def test_alert_alpha_dominates_theta(self):
        for seed in (1, 2, 3):
            rec = synth_eeg(Label.ALERT, seed, 26.0)
            assert band_psd(rec.samples, 8, 13) > band_psd(rec.samples, 4, 8)

    def test_determinism(self):
        a = synth_eeg(Label.ALERT, 7, 13.0)
        b = synth_eeg(Label.ALERT, 7, 13.0)
        np.testing.assert_array_equal(a.samples, b.samples)

    def test_channels_differ_but_keep_class_structure(self):
        fz = synth_eeg(Label.DROWSY, 5, 26.0, Channel.FZ)
        pz = synth_eeg(Label.DROWSY, 5, 26.0, Channel.PZ)
        assert not np.array_equal(fz.samples, pz.samples)
        assert band_psd(pz.samples, 4, 8) > band_psd(pz.samples, 8, 13)

    def test_pvt_assignment_never_alerts_pvt3(self):
        for seed in range(10):
            rec = synth_eeg(Label.DROWSY, seed, 13.0)
            assert rec.pvt == Pvt.PVT3
            assert label_from_kss(rec.kss, rec.pvt) == Label.DROWSY
            rec = synth_eeg(Label.ALERT, seed, 13.0)
            assert rec.pvt == Pvt.PVT1
            assert label_from_kss(rec.kss, rec.pvt) == Label.ALERT

    def test_duration_too_short(self):
        with pytest.raises(PipelineError):
            synth_eeg(Label.ALERT, 0, 5.0)


# ---------------------------------------------------------------------------
# recording IO
# ---------------------------------------------------------------------------


class TestRecordingIO:
    def test_f32_roundtrip(self, tmp_path):
        samples = np.random.default_rng(5).normal(size=SEGMENT_SAMPLES).astype(np.float32)
        path = tmp_path / "r.f32"
        save_recording(path, samples)
        rec = load_recording(path, "s0", Pvt.PVT1, Channel.FZ, 2)
        np.testing.assert_array_equal(rec.samples, samples.astype(np.float64))
        assert len(segment(rec)) == 1

    def test_csv_one_number_per_line(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("1.5\n-2.5\n", encoding="utf-8")
        np.testing.assert_array_equal(load_recording(path, "s0", Pvt.PVT1, Channel.FZ, 2).samples, [1.5, -2.5])
        for text in ("value\n1.5\n-2.5\n", "1.5,9\n-2.5,x\n"):  # a header line; a second column
            path.write_text(text, encoding="utf-8")
            with pytest.raises(PipelineError, match="non-numeric CSV sample"):
                load_recording(path, "s0", Pvt.PVT1, Channel.FZ, 2)

    def test_bad_length(self, tmp_path):
        path = tmp_path / "r.f32"
        path.write_bytes(b"\x00" * 7)
        with pytest.raises(PipelineError):
            load_recording(path, "s0", Pvt.PVT1, Channel.FZ, 2)

    def test_missing_file(self, tmp_path):
        with pytest.raises(PipelineError):
            load_recording(tmp_path / "nope.f32", "s0", Pvt.PVT1, Channel.FZ, 2)

    def test_manifest_path_naming_a_directory(self, tmp_path):
        manifest = tmp_path / "recordings.csv"
        manifest.write_text("subject_id,pvt,channel,kss,path\ns0,PVT1,Fz,2,\n", encoding="utf-8")
        with pytest.raises(PipelineError, match="is a directory, not a file"):
            load_recordings_manifest(manifest)


# ---------------------------------------------------------------------------
# corpus + dataset building
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def small_corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus")
    manifest = build_synth_corpus(out, n_alert=2, n_drowsy=2, minutes=0.5, seed=11)
    return manifest


class TestCorpusAndDataset:
    def test_corpus_file_count(self, small_corpus):
        recs = load_recordings_manifest(small_corpus)
        assert len(recs) == 8  # 2 channels x 4 subjects
        assert sum(1 for r in recs if r.channel == Channel.FZ) == 4

    def test_fz_dataset_counts_and_balance(self, small_corpus):
        recs = load_recordings_manifest(small_corpus)
        images = build_dataset(recs, ChannelSet.FZ)
        # 0.5 min = 15360 samples -> 2 segments per recording, 4 Fz recordings
        assert len(images) == 8
        assert sum(1 for i in images if i.label == Label.ALERT) == 4
        assert all(i.pixels.shape == (32, 32) for i in images)

    def test_fzpz_dataset(self, small_corpus):
        recs = load_recordings_manifest(small_corpus)
        images = build_dataset(recs, ChannelSet.FZPZ)
        assert len(images) == 8
        assert all(i.pixels.shape == (64, 32) for i in images)
        assert all(i.channel_set == ChannelSet.FZPZ for i in images)

    def test_missing_pair_rejected(self, small_corpus):
        recs = [r for r in load_recordings_manifest(small_corpus) if r.channel == Channel.FZ]
        with pytest.raises(PipelineError):
            build_dataset(recs, ChannelSet.FZPZ)

    def test_pz_one_segment_short_rejected(self):
        fz, pz = _synth_pair(Label.ALERT, 6, 2 * 13.0)
        pz.samples = pz.samples[:SEGMENT_SAMPLES]
        with pytest.raises(PipelineError, match="2 Fz vs 1 Pz segments"):
            build_dataset([fz, pz], ChannelSet.FZPZ)

    @pytest.mark.parametrize("channel_set", list(ChannelSet))
    def test_duplicate_fz_rejected(self, channel_set):
        fz, pz = _synth_pair(Label.ALERT, 7, 13.0)
        with pytest.raises(PipelineError, match="duplicate Fz recording"):
            build_dataset([fz, pz, fz], channel_set)

    def test_empty_input(self):
        assert build_dataset([], ChannelSet.FZ) == []

    def test_unlabeled_recordings_skipped(self):
        rec = synth_eeg(Label.ALERT, 1, 13.0)
        unlabeled = EegRecording(rec.subject_id, Pvt.PVT2, rec.channel, rec.samples, rec.kss)
        assert build_dataset([unlabeled], ChannelSet.FZ) == []

    def test_class_images_are_distinguishable(self, small_corpus):
        # drowsy brightness should sit in theta rows, alert in alpha rows
        recs = load_recordings_manifest(small_corpus)
        images = build_dataset(recs, ChannelSet.FZ)
        # image rows: 0 = 20 Hz ... 31 = 0 Hz; 1 Hz bin k maps near row 31 - k*31/20
        def row_for_hz(hz):
            return int(round(31 - hz * 31 / 20))

        for img in images:
            theta = img.pixels[row_for_hz(7) : row_for_hz(4.5)].mean()
            alpha = img.pixels[row_for_hz(12) : row_for_hz(9)].mean()
            if img.label == Label.DROWSY:
                assert theta > alpha
            else:
                assert alpha > theta


class TestDatasetIO:
    def test_pgm_roundtrip(self, tmp_path):
        pixels = np.random.default_rng(6).integers(0, 256, size=(64, 32)).astype(np.uint8)
        path = tmp_path / "x.pgm"
        write_pgm(path, pixels)
        np.testing.assert_array_equal(read_pgm(path), pixels)

    def test_dataset_roundtrip(self, small_corpus, tmp_path):
        recs = load_recordings_manifest(small_corpus)
        images = build_dataset(recs, ChannelSet.FZ)
        manifest = write_dataset(images, tmp_path / "ds")
        loaded = load_dataset(manifest)
        assert len(loaded) == len(images)
        for a, b in zip(images, loaded):
            np.testing.assert_array_equal(a.pixels, b.pixels)
            assert (a.label, a.subject_id, a.channel_set, a.segment_index) == (
                b.label,
                b.subject_id,
                b.channel_set,
                b.segment_index,
            )

        # a malformed row, an image path naming a directory or a malformed PGM
        # size line is a PipelineError naming the row or file
        header, first, *rest = manifest.read_text(encoding="utf-8").splitlines(keepends=True)
        image_path, label, subject_id, channel_set, _ = first.rstrip("\n").split(",")
        for bad_row, bad in (
            (f"{image_path},Sleepy,{subject_id},{channel_set},0\n", "label 'Sleepy'"),
            (f"{image_path},{label},{subject_id},{channel_set},a\n", "segment_index 'a'"),
        ):
            manifest.write_text(header + bad_row + "".join(rest), encoding="utf-8")
            with pytest.raises(PipelineError, match=re.escape(f"{manifest} line 2: bad {bad}")):
                load_dataset(manifest)
        for directory in ("", "."):
            manifest.write_text(header + f"{directory},{label},{subject_id},{channel_set},0\n" + "".join(rest), encoding="utf-8")
            with pytest.raises(PipelineError, match=f"{manifest.parent} is a directory, not a PGM file"):
                load_dataset(manifest)
        manifest.write_text(header + first + "".join(rest), encoding="utf-8")
        pgm = manifest.parent / image_path
        raw = pgm.read_bytes()
        for size_line in (b"x 32", b"32"):
            pgm.write_bytes(raw.replace(b"\n32 32\n", b"\n" + size_line + b"\n", 1))
            with pytest.raises(PipelineError, match=f"{image_path} has a malformed PGM size line"):
                load_dataset(manifest)

    def test_image_listed_twice_is_refused(self, small_corpus, tmp_path):
        # one image in two rows would be trained and tested, or tested twice, in one fold
        manifest = write_dataset(build_dataset(load_recordings_manifest(small_corpus), ChannelSet.FZ), tmp_path / "ds")
        header, first, *rest = manifest.read_text(encoding="utf-8").splitlines(keepends=True)
        image_path = first.split(",")[0]
        for again in (image_path, f"./{image_path}", f"sub/../{image_path}", str(manifest.parent / image_path)):
            manifest.write_text(header + first + "".join(rest) + again + first[len(image_path) :], encoding="utf-8")
            with pytest.raises(PipelineError, match=re.escape(f"{manifest} lists image {again} twice")):
                load_dataset(manifest)
        manifest.write_text(header + first + "".join(rest), encoding="utf-8")
        assert len(load_dataset(manifest)) == 1 + len(rest)

    def test_write_is_idempotent(self, small_corpus, tmp_path):
        recs = load_recordings_manifest(small_corpus)
        images = build_dataset(recs, ChannelSet.FZ)
        out = tmp_path / "ds"
        write_dataset(images, out)
        first = {p.name: p.read_bytes() for p in out.iterdir()}
        write_dataset(images, out)
        second = {p.name: p.read_bytes() for p in out.iterdir()}
        assert first == second


class TestRunFiles:
    def test_rows_round_trip_in_any_column_order(self, tmp_path):
        path = tmp_path / "rows.csv"
        rows = [("a,00", 'say "hi"', 3), ("", "x", -1)]
        write_rows(path, ("name", "note", "n"), rows)
        assert path.read_bytes() == b'name,note,n\n"a,00","say ""hi""",3\n,x,-1\n'
        assert [tuple(row.values()) for row in read_rows(path, {"name": str, "note": str, "n": int})] == rows
        assert read_rows(path, {"n": int, "note": str, "name": str}) == read_rows(path, {"name": str, "note": str, "n": int})

    @pytest.mark.parametrize(
        "text, problem",
        [
            ("name,n\nx,1\n", "must have columns"),
            ("name,note,n\nx,y\n", "line 2: expected 3 cells, got 2"),
            ("name,note,n\nx,y,1\nx,y,1,1\n", "line 3: expected 3 cells, got 4"),
            ("name,note,n\nx,y,one\n", "line 2: bad n 'one'"),
            ('name,note,n\n"x\ny",y,1\n', "line 3: bad name 'x\\ny'"),
            ("name,note,n\nx\0,y,1\n", "line 2: bad name 'x\\x00'"),
        ],
        ids=["columns", "missing-cell", "extra-cell", "bad-cell", "line-break", "nul"],
    )
    def test_malformed_rows_name_file_and_line(self, tmp_path, text, problem):
        path = tmp_path / "rows.csv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(PipelineError, match=re.escape(f"{path} {problem}")):
            read_rows(path, {"name": str, "note": str, "n": int})

    def test_write_that_raises_leaves_old_file(self, tmp_path):
        path = tmp_path / "rows.csv"
        write_rows(path, ("n",), [(1,)])

        def rows():
            yield (2,)
            raise OSError("disk full")

        with pytest.raises(OSError, match="disk full"):
            write_rows(path, ("n",), rows())
        assert path.read_text(encoding="utf-8") == "n\n1\n"

    def test_write_that_fails_part_way_leaves_old_file(self, tmp_path, monkeypatch):
        path = tmp_path / "rows.csv"
        write_rows(path, ("n",), [(1,)])

        class FullDisk:
            def __init__(self, fh, **kwargs):
                self.fh = fh

            def writerows(self, rows):
                self.fh.write("n\n")
                raise OSError("disk full")

        monkeypatch.setattr(signal.csv, "writer", FullDisk)
        with pytest.raises(OSError, match="disk full"):
            write_rows(path, ("n",), [(2,)])
        assert path.read_text(encoding="utf-8") == "n\n1\n"

    def test_cell_that_cannot_be_read_back_is_refused_before_any_file(self, tmp_path):
        image = SpectrogramImage(np.zeros((32, 32), np.uint8), Label.ALERT, "a\rb", ChannelSet.FZ, 0)
        with pytest.raises(PipelineError, match=r"cannot write '00000_a\\rb_0000\.pgm' to .* cannot hold a NUL character or a line break"):
            write_dataset([image], tmp_path)
        assert not (tmp_path / "dataset.csv").exists()
        assert not (tmp_path / "dataset.csv.tmp").exists()

    def test_manifests_with_crlf_lines_load_the_same(self, small_corpus, tmp_path):
        crlf = tmp_path / "crlf"
        shutil.copytree(small_corpus.parent, crlf)
        manifest = crlf / "recordings.csv"
        manifest.write_bytes(small_corpus.read_bytes().replace(b"\n", b"\r\n"))
        assert b"\r\n" in manifest.read_bytes()
        recs = load_recordings_manifest(manifest)
        for a, b in zip(load_recordings_manifest(small_corpus), recs, strict=True):
            assert (a.subject_id, a.pvt, a.channel, a.kss) == (b.subject_id, b.pvt, b.channel, b.kss)
            np.testing.assert_array_equal(a.samples, b.samples)
        dataset = write_dataset(build_dataset(recs, ChannelSet.FZ), tmp_path / "ds")
        images = load_dataset(dataset)
        dataset.write_bytes(dataset.read_bytes().replace(b"\n", b"\r\n"))
        for a, b in zip(images, load_dataset(dataset), strict=True):
            np.testing.assert_array_equal(a.pixels, b.pixels)
            assert (a.label, a.subject_id, a.channel_set, a.segment_index, a.source_path) == (
                b.label,
                b.subject_id,
                b.channel_set,
                b.segment_index,
                b.source_path,
            )
