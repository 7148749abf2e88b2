"""EEG channel streams to labeled grayscale spectrogram images.

Recordings are 512 Hz single-channel sample streams. Each recording is cut
into a [K, 6656] stack of non-overlapping 13 s segments, which is turned into
[K, 21, 25] 0-20 Hz dB spectrograms and rendered as [K, 32, 32] grayscale
images in one pass. FzPz datasets stack each segment's Fz image on top of the
parietal (Pz) image of the same segment into 64x32 images.

Every spectrogram and imaging function works on the last one or two axes and
accepts any leading axes; a stack gives, bit for bit, the result of each of
its members alone. All operations are pure given their inputs; dataset
building is deterministic in manifest order.
"""

from __future__ import annotations

import csv
import os
from contextlib import contextmanager
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Callable, Iterable, Mapping, Optional, Sequence

import numpy as np

__all__ = [
    "SAMPLE_RATE",
    "SEGMENT_SAMPLES",
    "Pvt",
    "Channel",
    "ChannelSet",
    "Label",
    "EegRecording",
    "SpectrogramImage",
    "PipelineError",
    "read_rows",
    "atomic_write",
    "write_rows",
    "segment",
    "stft_frame_count",
    "stft_magnitudes",
    "to_decibels",
    "stft_spectrogram",
    "resample_bilinear",
    "sample_bilinear_clamped",
    "to_grayscale_image",
    "label_from_kss",
    "synth_eeg",
    "load_recording",
    "save_recording",
    "load_recordings_manifest",
    "build_synth_corpus",
    "build_dataset",
    "write_pgm",
    "read_pgm",
    "write_dataset",
    "load_dataset",
]

SAMPLE_RATE = 512
SEGMENT_SECONDS = 13
SEGMENT_SAMPLES = SEGMENT_SECONDS * SAMPLE_RATE  # 6656

STFT_WINDOW = 512
STFT_HOP = 256  # 50% overlap
MAX_FREQ_HZ = 20

DB_FLOOR = -80.0
DB_CEIL = 0.0
IMAGE_HW = (32, 32)


class PipelineError(ValueError):
    """Invalid recording, segment, or manifest input."""


def read_rows(path: Path, schema: Mapping[str, Callable[[str], object]]) -> list[dict]:
    """The rows of a UTF-8 CSV file whose header names the columns of ``schema`` (name -> cell parser) in any order.

    A missing or extra cell, a cell holding NUL or a line break or rejected by its parser, and non-CSV text raise PipelineError.
    """
    rows = []
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, [])
            if sorted(header) != sorted(schema):
                raise PipelineError(f"{path} must have columns {sorted(schema)}, got {header}")
            for cells in filter(None, reader):  # blank lines are skipped
                where = f"{path} line {reader.line_num}"
                if len(cells) != len(header):
                    raise PipelineError(f"{where}: expected {len(header)} cells, got {len(cells)}: {cells}")
                row = {}
                for name, cell in zip(header, cells):
                    try:
                        _check_cell(cell)
                        row[name] = schema[name](cell)
                    except ValueError as exc:
                        raise PipelineError(f"{where}: bad {name} {cell!r}: {exc}") from exc
                rows.append(row)
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise PipelineError(f"cannot read {path} as CSV text: {exc}") from exc
    return rows


def _check_cell(cell: str) -> None:
    if "\0" in cell or "\r" in cell or "\n" in cell:  # no path holds NUL, and every row is one line
        raise ValueError("a cell cannot hold a NUL character or a line break")


@contextmanager
def atomic_write(path: Path, mode: str, **open_args):
    """Open a temp file beside ``path``, renamed to ``path`` when the block completes and removed if it raises.
    PGM images need none: ``write_dataset`` unlinks the manifest first and writes it last."""
    partial = Path(f"{path}.tmp")
    try:
        with open(partial, mode, **open_args) as fh:
            yield fh
        os.replace(partial, path)
    finally:
        partial.unlink(missing_ok=True)  # left only if the write or the rename failed


def write_rows(path: Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write UTF-8 CSV with "\\n" line endings to ``path`` through ``atomic_write``.

    A cell that ``read_rows`` would refuse raises PipelineError before any file is written.
    """
    table = [header, *rows]
    for cell in (str(cell) for row in table for cell in row):
        try:
            _check_cell(cell)
        except ValueError as exc:
            raise PipelineError(f"cannot write {cell!r} to {path}: {exc}") from None
    with atomic_write(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(table)


class Pvt(Enum):
    PVT1 = "PVT1"
    PVT2 = "PVT2"
    PVT3 = "PVT3"


class Channel(Enum):
    FZ = "Fz"
    PZ = "Pz"


class ChannelSet(Enum):
    FZ = "Fz"
    FZPZ = "FzPz"


# the recordings each channel set is built from, top image first
_CHANNELS = {ChannelSet.FZ: (Channel.FZ,), ChannelSet.FZPZ: (Channel.FZ, Channel.PZ)}


class Label(Enum):
    ALERT = "Alert"
    DROWSY = "Drowsy"


@dataclass
class EegRecording:
    subject_id: str
    pvt: Pvt
    channel: Channel
    sample_rate: int
    samples: np.ndarray
    kss: int

    def __post_init__(self):
        if self.sample_rate != SAMPLE_RATE:
            raise PipelineError(f"sample_rate must be {SAMPLE_RATE} Hz, got {self.sample_rate}")
        if not 1 <= self.kss <= 9:
            raise PipelineError(f"kss must be in [1, 9], got {self.kss}")
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 1:
            raise PipelineError(f"samples must be 1-D, got shape {self.samples.shape}")
        if not np.isfinite(self.samples).all():
            raise PipelineError(f"recording {self.subject_id}/{self.channel.value} contains non-finite samples")


@dataclass
class SpectrogramImage:
    pixels: np.ndarray  # uint8, HxW
    label: Label
    subject_id: str
    channel_set: ChannelSet
    segment_index: int
    source_path: Optional[str] = None  # manifest-relative path when loaded from disk

    def __post_init__(self):
        self.pixels = np.asarray(self.pixels)
        if self.pixels.dtype != np.uint8 or self.pixels.ndim != 2:
            raise PipelineError(f"pixels must be a 2-D uint8 array, got {self.pixels.dtype} {self.pixels.shape}")


# ---------------------------------------------------------------------------
# segmentation
# ---------------------------------------------------------------------------


def segment(recording: EegRecording) -> np.ndarray:
    """Consecutive non-overlapping 13 s windows as a [K, SEGMENT_SAMPLES] view; trailing remainder discarded."""
    k = len(recording.samples) // SEGMENT_SAMPLES
    return recording.samples[: k * SEGMENT_SAMPLES].reshape(k, SEGMENT_SAMPLES)


# ---------------------------------------------------------------------------
# spectrogram
# ---------------------------------------------------------------------------


def stft_frame_count(n_samples: int) -> int:
    if n_samples < STFT_WINDOW:
        raise PipelineError(f"need at least {STFT_WINDOW} samples, got {n_samples}")
    return (n_samples - STFT_WINDOW) // STFT_HOP + 1


def stft_magnitudes(samples: np.ndarray, max_bin: int = MAX_FREQ_HZ) -> np.ndarray:
    """Hann-windowed STFT magnitudes of the last axis for bins 0..max_bin; shape [..., max_bin + 1, frames]."""
    samples = np.asarray(samples, dtype=np.float64)
    n_frames = stft_frame_count(samples.shape[-1])
    idx = np.arange(STFT_WINDOW)[None, :] + STFT_HOP * np.arange(n_frames)[:, None]
    frames = samples[..., idx] * np.hanning(STFT_WINDOW)
    spec = np.abs(np.fft.rfft(frames, n=STFT_WINDOW, axis=-1))[..., : max_bin + 1]
    return np.swapaxes(spec, -1, -2).copy()


def to_decibels(magnitudes: np.ndarray) -> np.ndarray:
    return np.clip(20.0 * np.log10(magnitudes + 1e-12), DB_FLOOR, DB_CEIL)


def stft_spectrogram(segments: np.ndarray) -> np.ndarray:
    """dB-scaled magnitudes [..., 21 freq bins, 25 frames] of 13 s segments laid along the last axis."""
    if np.shape(segments)[-1:] != (SEGMENT_SAMPLES,):
        raise PipelineError(f"segments must hold exactly {SEGMENT_SAMPLES} samples on the last axis, got {np.shape(segments)}")
    return to_decibels(stft_magnitudes(segments))


# ---------------------------------------------------------------------------
# imaging
# ---------------------------------------------------------------------------


def sample_bilinear_clamped(pixels: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Bilinear lookups at fractional (rows, cols) in the last two axes of ``pixels``.

    rows and cols broadcast to the output's [H, W]; leading axes of ``pixels``
    carry through. Out-of-frame coordinates clamp to the nearest border pixel.
    """
    h, w = pixels.shape[-2:]
    rows = np.clip(rows, 0.0, h - 1.0)
    cols = np.clip(cols, 0.0, w - 1.0)
    r0 = np.floor(rows).astype(int)
    c0 = np.floor(cols).astype(int)
    r1 = np.minimum(r0 + 1, h - 1)
    c1 = np.minimum(c0 + 1, w - 1)
    fr = rows - r0
    fc = cols - c0
    p = pixels.astype(np.float64)
    # lerp along columns, then between rows: exact at grid points and for constant inputs
    top = p[..., r0, c0] + fc * (p[..., r0, c1] - p[..., r0, c0])
    bottom = p[..., r1, c0] + fc * (p[..., r1, c1] - p[..., r1, c0])
    return top + fr * (bottom - top)


def resample_bilinear(matrix: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Bilinear resampling of the last two axes with endpoints mapped to endpoints."""
    matrix = np.asarray(matrix, dtype=np.float64)
    in_h, in_w = matrix.shape[-2:]
    r = np.linspace(0.0, in_h - 1.0, out_h) if in_h > 1 else np.zeros(out_h)
    c = np.linspace(0.0, in_w - 1.0, out_w) if in_w > 1 else np.zeros(out_w)
    return sample_bilinear_clamped(matrix, r[:, None], c[None, :])


def to_grayscale_image(spec_db: np.ndarray) -> np.ndarray:
    """Map [..., 21, 25] dB matrices onto the fixed [-80, 0] range and resample to [..., 32, 32] uint8.

    Row 0 of each image is the highest frequency (frequency increases upward).
    """
    spec_db = np.asarray(spec_db, dtype=np.float64)
    norm = (np.clip(spec_db, DB_FLOOR, DB_CEIL) - DB_FLOOR) / (DB_CEIL - DB_FLOOR)
    resized = resample_bilinear(norm, *IMAGE_HW)
    return np.rint(resized[..., ::-1, :] * 255.0).astype(np.uint8)


# ---------------------------------------------------------------------------
# labeling
# ---------------------------------------------------------------------------


def label_from_kss(kss: int, pvt: Pvt) -> Optional[Label]:
    """KSS <= 4 is Alert, >= 7 is Drowsy; PVT2 and the 5-6 middle band are unlabeled."""
    if not 1 <= kss <= 9:
        raise PipelineError(f"kss must be in [1, 9], got {kss}")
    if pvt == Pvt.PVT2:
        return None
    if kss <= 4:
        return Label.ALERT
    if kss >= 7:
        return Label.DROWSY
    return None


# ---------------------------------------------------------------------------
# synthetic recordings
# ---------------------------------------------------------------------------

# band-limited component amplitudes per class; theta dominates when drowsy,
# alpha (plus some beta) when alert
_THETA_BAND = (4.0, 8.0)
_ALPHA_BAND = (8.0, 13.0)
_BETA_BAND = (13.0, 20.0)

_CLASS_AMPLITUDES = {
    Label.ALERT: {"theta": 0.0008, "alpha": 0.0060, "beta": 0.0020},
    Label.DROWSY: {"theta": 0.0060, "alpha": 0.0012, "beta": 0.0008},
}
_CHANNEL_GAIN = {
    Channel.FZ: {"theta": 1.2, "alpha": 1.0, "beta": 1.0},
    Channel.PZ: {"theta": 0.8, "alpha": 1.3, "beta": 1.0},
}
_NOISE_SIGMA = 0.0004


_ANGLE_BLOCK = 256  # samples per coarse angle step: half a second


def _band_component(rng: np.random.Generator, band: tuple, amplitude: float, n: int) -> np.ndarray:
    """n samples of eight sinusoids with random frequencies in ``band`` and random phases, summed.

    Sample i = B*a + b (B = _ANGLE_BLOCK) of sin(w*i/fs + phi) is expanded by
    angle addition into sin(x_a)*cos(y_b) + cos(x_a)*sin(y_b), with
    x_a = w*B*a/fs + phi and y_b = w*b/fs. That takes 2*(ceil(n/B) + B) sines
    and cosines per sinusoid instead of n; the eight are summed in one
    [ceil(n/B), 16] x [16, B] einsum, which makes no BLAS call, so the result
    does not depend on the BLAS build or its thread count.
    """
    k = 8
    freqs = rng.uniform(band[0], band[1], size=k)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=k)
    omega = 2.0 * np.pi * freqs
    blocks = -(-n // _ANGLE_BLOCK)
    x = omega * (np.arange(blocks) * _ANGLE_BLOCK / SAMPLE_RATE)[:, None] + phases
    y = omega[:, None] * (np.arange(_ANGLE_BLOCK) / SAMPLE_RATE)
    coarse = np.concatenate([np.sin(x), np.cos(x)], axis=1)
    fine = np.concatenate([np.cos(y), np.sin(y)], axis=0)
    parts = np.einsum("ak,kb->ab", coarse, fine)
    return (amplitude / np.sqrt(k)) * parts.reshape(-1)[:n]


def _pink_noise(rng: np.random.Generator, n: int, sigma: float) -> np.ndarray:
    spec = rng.normal(size=n // 2 + 1) + 1j * rng.normal(size=n // 2 + 1)
    freqs = np.arange(n // 2 + 1, dtype=np.float64)
    freqs[0] = 1.0
    spec /= np.sqrt(freqs)
    noise = np.fft.irfft(spec, n=n)
    return noise * (sigma / noise.std())


def synth_eeg(label: Label, subject_seed: int, duration_s: float, channel: Channel = Channel.FZ) -> EegRecording:
    """Band-structured stand-in recording: 1/f background plus class-dependent rhythms.

    Deterministic in (label, subject_seed, duration, channel). Alert output has
    dominant alpha power; drowsy output has dominant theta power.
    """
    if not np.isfinite(duration_s) or duration_s < SEGMENT_SECONDS:
        raise PipelineError(f"duration must be finite and cover at least one segment ({SEGMENT_SECONDS} s), got {duration_s} s")
    n = int(round(duration_s * SAMPLE_RATE))
    if n > np.iinfo(np.intp).max // 8:
        raise PipelineError(f"cannot synthesize {duration_s} s: its float64 samples exceed the largest possible array")
    rng = np.random.default_rng((0xEE6, subject_seed, 1 if label == Label.DROWSY else 0, 1 if channel == Channel.PZ else 0))
    amp = _CLASS_AMPLITUDES[label]
    gain = _CHANNEL_GAIN[channel]
    jitter = {band: 1.0 + 0.2 * rng.uniform(-1.0, 1.0) for band in amp}
    try:
        samples = _pink_noise(rng, n, _NOISE_SIGMA)
        samples += _band_component(rng, _THETA_BAND, amp["theta"] * gain["theta"] * jitter["theta"], n)
        samples += _band_component(rng, _ALPHA_BAND, amp["alpha"] * gain["alpha"] * jitter["alpha"], n)
        samples += _band_component(rng, _BETA_BAND, amp["beta"] * gain["beta"] * jitter["beta"], n)
    except MemoryError as exc:  # a duration too long to hold in memory
        raise PipelineError(f"cannot synthesize {duration_s} s ({n} samples): {exc}") from exc
    # KSS belongs to the subject, not the channel: draw from a channel-free stream
    kss_rng = np.random.default_rng((0x55, subject_seed, 1 if label == Label.DROWSY else 0))
    kss = int(kss_rng.integers(1, 5)) if label == Label.ALERT else int(kss_rng.integers(7, 10))
    pvt = Pvt.PVT1 if label == Label.ALERT else Pvt.PVT3
    return EegRecording(
        subject_id=f"s{subject_seed}",
        pvt=pvt,
        channel=channel,
        sample_rate=SAMPLE_RATE,
        samples=samples,
        kss=kss,
    )


# ---------------------------------------------------------------------------
# recording IO
# ---------------------------------------------------------------------------


def save_recording(path: Path, samples: np.ndarray) -> None:
    np.asarray(samples, dtype="<f4").tofile(path)


def load_recording(path: Path, subject_id: str, pvt: Pvt, channel: Channel, kss: int) -> EegRecording:
    """Read raw little-endian float32 (.f32) or headerless single-column UTF-8 CSV samples."""
    path = Path(path)
    try:
        raw = path.read_bytes()
    except IsADirectoryError:
        raise PipelineError(f"recording path {path} is a directory, not a file") from None
    except OSError as exc:  # missing, unreadable or a name too long
        raise PipelineError(f"cannot read recording {path}: {exc.strerror}") from exc
    if path.suffix == ".csv":
        try:
            text = raw.decode("utf-8").strip().splitlines()
        except UnicodeDecodeError as exc:
            raise PipelineError(f"CSV recording {path} is not UTF-8 text: {exc}") from exc
        try:
            samples = np.array([float(line) for line in text], dtype=np.float64)
        except ValueError as exc:
            raise PipelineError(f"non-numeric CSV sample in {path}: {exc}") from exc
    else:
        if len(raw) % 4 != 0:
            raise PipelineError(f"{path} has {len(raw)} bytes, not a whole number of float32 samples")
        samples = np.frombuffer(raw, dtype="<f4")
        if not np.isfinite(samples).all():  # before the cast, which warns on a signalling NaN
            raise PipelineError(f"{path} holds a non-finite sample")
        samples = samples.astype(np.float64)
    if samples.size == 0:
        raise PipelineError(f"{path} holds no samples")
    return EegRecording(subject_id=subject_id, pvt=pvt, channel=channel, sample_rate=SAMPLE_RATE, samples=samples, kss=kss)


# recordings.csv columns in written order, each with the parser of its cells
_RECORDING_COLUMNS = {"subject_id": str, "pvt": Pvt, "channel": Channel, "kss": int, "path": str}


def load_recordings_manifest(manifest_path: Path) -> list[EegRecording]:
    """Read recordings.csv (subject_id,pvt,channel,kss,path) and load each file."""
    manifest_path = Path(manifest_path)
    return [
        load_recording(manifest_path.parent / row["path"], row["subject_id"], row["pvt"], row["channel"], row["kss"])
        for row in read_rows(manifest_path, _RECORDING_COLUMNS)
    ]


def build_synth_corpus(out_dir: Path, n_alert: int, n_drowsy: int, minutes: float, seed: int) -> Path:
    """Write synthetic Fz+Pz recordings and recordings.csv; returns the manifest path."""
    if n_alert < 1 or n_drowsy < 1:
        raise PipelineError("need at least one subject per class")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    # an old manifest must not name a mix of old and new recordings if this run stops part-way
    manifest = out_dir / "recordings.csv"
    manifest.unlink(missing_ok=True)
    rows = []
    plan = [(Label.ALERT, f"a{i:02d}", i) for i in range(n_alert)]
    plan += [(Label.DROWSY, f"d{i:02d}", i) for i in range(n_drowsy)]
    for label, subject_id, i in plan:
        subject_seed = int(np.random.default_rng((seed, 1 if label == Label.DROWSY else 0, i)).integers(0, 2**31))
        for channel in (Channel.FZ, Channel.PZ):
            rec = synth_eeg(label, subject_seed, minutes * 60.0, channel)
            fname = f"{subject_id}_{rec.pvt.value}_{channel.value}.f32"
            save_recording(out_dir / fname, rec.samples)
            rows.append((subject_id, rec.pvt.value, channel.value, rec.kss, fname))
    write_rows(manifest, list(_RECORDING_COLUMNS), rows)
    return manifest


# ---------------------------------------------------------------------------
# dataset building
# ---------------------------------------------------------------------------


def build_dataset(recordings: Sequence[EegRecording], channel_set: ChannelSet) -> list[SpectrogramImage]:
    """Segment, transform, and label recordings into spectrogram images.

    Recordings of the set's channels are grouped by (subject, PVT) in order of
    first appearance; each group needs one recording per channel, one KSS and
    one segment count. Groups the Fz KSS leaves unlabeled (PVT2 or mid KSS) are
    skipped. Each segment's channel images are stacked top to bottom (Fz above Pz).
    """
    channels = _CHANNELS[channel_set]
    groups: dict[tuple, dict[Channel, EegRecording]] = {}
    for rec in recordings:
        if rec.channel not in channels:
            continue
        group = groups.setdefault((rec.subject_id, rec.pvt), {})
        if rec.channel in group:
            raise PipelineError(f"duplicate {rec.channel.value} recording for subject {rec.subject_id} {rec.pvt.value}")
        group[rec.channel] = rec

    images = []
    for (subject_id, pvt), group in groups.items():
        if len(group) != len(channels):
            raise PipelineError(f"{channel_set.value} mode requires both channels for subject {subject_id} {pvt.value}")
        recs = [group[channel] for channel in channels]
        if any(rec.kss != recs[0].kss for rec in recs):
            kss = " vs ".join(str(rec.kss) for rec in recs)
            raise PipelineError(f"KSS disagrees between channels for subject {subject_id}: {kss}")
        label = label_from_kss(recs[0].kss, pvt)
        if label is None:
            continue
        stacks = [segment(rec) for rec in recs]
        if any(len(stack) != len(stacks[0]) for stack in stacks):
            counts = " vs ".join(f"{len(stack)} {rec.channel.value}" for stack, rec in zip(stacks, recs))
            raise PipelineError(f"missing paired Pz segment for subject {subject_id}: {counts} segments")
        pixels = np.concatenate([to_grayscale_image(stft_spectrogram(stack)) for stack in stacks], axis=1)
        images.extend(SpectrogramImage(p, label, subject_id, channel_set, i) for i, p in enumerate(pixels))
    return images


# ---------------------------------------------------------------------------
# image store (binary PGM + manifest)
# ---------------------------------------------------------------------------


def write_pgm(path: Path, pixels: np.ndarray) -> None:
    pixels = np.asarray(pixels, dtype=np.uint8)
    h, w = pixels.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(pixels.tobytes())


def read_pgm(path: Path) -> np.ndarray:
    path = Path(path)
    try:
        raw = path.read_bytes()
    except IsADirectoryError:
        raise PipelineError(f"{path} is a directory, not a PGM file") from None
    except OSError as exc:  # missing, unreadable or a name too long
        raise PipelineError(f"cannot read PGM {path}: {exc.strerror}") from exc
    if not raw.startswith(b"P5"):
        raise PipelineError(f"{path} is not a binary PGM file")
    parts = raw.split(b"\n", 3)
    if len(parts) != 4:
        raise PipelineError(f"{path} has a malformed PGM header")
    try:
        w, h = (int(v) for v in parts[1].split())
    except ValueError:
        raise PipelineError(f"{path} has a malformed PGM size line {parts[1][:40]!r}") from None
    if w < 1 or h < 1:
        raise PipelineError(f"{path} has a non-positive PGM size {w}x{h}")
    if parts[2] != b"255":
        raise PipelineError(f"{path} must use maxval 255")
    data = parts[3][: h * w]
    if len(data) != h * w:
        raise PipelineError(f"{path} is truncated")
    return np.frombuffer(data, dtype=np.uint8).reshape(h, w)


# dataset.csv columns in written order, each with the parser of its cells
_DATASET_COLUMNS = {"image_path": str, "label": Label, "subject_id": str, "channel_set": ChannelSet, "segment_index": int}


def write_dataset(images: Sequence[SpectrogramImage], out_dir: Path) -> Path:
    """Write PGM files plus dataset.csv; returns the manifest path."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    # an old manifest must not name a mix of old and new images if this run stops part-way
    manifest = out_dir / "dataset.csv"
    manifest.unlink(missing_ok=True)
    rows = []
    for i, img in enumerate(images):
        fname = f"{i:05d}_{img.subject_id}_{img.segment_index:04d}.pgm"
        write_pgm(out_dir / fname, img.pixels)
        rows.append((fname, img.label.value, img.subject_id, img.channel_set.value, img.segment_index))
    write_rows(manifest, list(_DATASET_COLUMNS), rows)
    return manifest


def load_dataset(manifest_path: Path) -> list[SpectrogramImage]:
    manifest_path = Path(manifest_path)
    images = []
    for row in read_rows(manifest_path, _DATASET_COLUMNS):
        path = manifest_path.parent / row["image_path"]
        pixels = read_pgm(path)
        if images and pixels.shape != images[0].pixels.shape:
            raise PipelineError(f"{path} has shape {pixels.shape}, but {images[0].source_path} has {images[0].pixels.shape}")
        fields = (row["label"], row["subject_id"], row["channel_set"], row["segment_index"])
        images.append(SpectrogramImage(pixels, *fields, source_path=row["image_path"]))
    if not images:
        raise PipelineError(f"{manifest_path} lists no images")
    return images
