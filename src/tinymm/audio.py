"""Audio front-end: WAV input, chunking and MFCC spectrograms.

The MFCC pipeline is: optional center padding (frame_length/2, reflected),
periodic Hann window per frame, magnitude spectrum via a real FFT, a
triangular mel filter bank on the HTK mel scale
(mel = 2595 * log10(1 + f / 700)), a log with floor 1e-10, and an
orthonormal DCT-II of which the first num_coefficients rows are kept.
With center padding a clip of L samples yields floor(L / hop) + 1 frames.

No pre-emphasis, no liftering, no resampling.
"""
from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (
    ClipTooShortError,
    CorruptFileError,
    InvalidShapeError,
    SampleRateMismatchError,
    UnsupportedFormatError,
)
from .tensor import Tensor

LOG_FLOOR = 1e-10
# Frames windowed and transformed per step of `mfcc`. At 2048-sample frames
# a block's temporaries total about 0.5 MB, so they stay in cache and the
# allocator reuses them; whole-clip temporaries are fresh multi-MB arrays
# that are page-faulted in again on every call.
FRAME_BLOCK = 16


@dataclass(frozen=True)
class AudioClip:
    """Mono waveform in [-1, 1] at a fixed sample rate."""

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        object.__setattr__(
            self, "samples", np.asarray(self.samples, dtype=np.float64).reshape(-1)
        )
        if self.samples.size == 0:
            raise CorruptFileError("audio clip has no samples")
        if self.sample_rate <= 0:
            raise InvalidShapeError(f"bad sample rate {self.sample_rate}")

    @property
    def duration(self) -> float:
        return self.samples.size / self.sample_rate


@dataclass(frozen=True)
class MfccConfig:
    sample_rate: int
    frame_length: int
    hop_length: int
    num_mel_filters: int
    num_coefficients: int
    fmin: float = 0.0
    fmax: float | None = None
    center_padding: bool = True

    def __post_init__(self):
        if self.num_coefficients > self.num_mel_filters:
            raise InvalidShapeError("num_coefficients must be <= num_mel_filters")
        if self.frame_length < self.hop_length:
            raise InvalidShapeError("frame_length must be >= hop_length")
        if self.hop_length < 1:
            raise InvalidShapeError("hop_length must be >= 1")
        fmax = self.fmax if self.fmax is not None else self.sample_rate / 2
        if fmax > self.sample_rate / 2:
            raise InvalidShapeError("fmax must be <= sample_rate / 2")
        if not 0 <= self.fmin < fmax:
            raise InvalidShapeError("need 0 <= fmin < fmax")

    @property
    def effective_fmax(self) -> float:
        return self.fmax if self.fmax is not None else self.sample_rate / 2

    def to_dict(self) -> dict:
        return {
            "sample_rate": self.sample_rate,
            "frame_length": self.frame_length,
            "hop_length": self.hop_length,
            "num_mel_filters": self.num_mel_filters,
            "num_coefficients": self.num_coefficients,
            "fmin": self.fmin,
            "fmax": self.fmax,
            "center_padding": self.center_padding,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "MfccConfig":
        return cls(
            sample_rate=int(doc["sample_rate"]),
            frame_length=int(doc["frame_length"]),
            hop_length=int(doc["hop_length"]),
            num_mel_filters=int(doc["num_mel_filters"]),
            num_coefficients=int(doc["num_coefficients"]),
            fmin=float(doc.get("fmin", 0.0)),
            fmax=None if doc.get("fmax") is None else float(doc["fmax"]),
            center_padding=bool(doc.get("center_padding", True)),
        )


DEFAULT_MFCC = MfccConfig(
    sample_rate=22050,
    frame_length=2048,
    hop_length=512,
    num_mel_filters=40,
    num_coefficients=13,
)


# -- WAV i/o ------------------------------------------------------------------

def load_wav(path) -> AudioClip:
    """Read a RIFF/WAVE file; only 16-bit PCM mono is accepted."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < 12 or raw[:4] != b"RIFF" or raw[8:12] != b"WAVE":
        raise CorruptFileError(f"{path}: not a RIFF/WAVE file")
    pos = 12
    fmt = None
    data = None
    while pos + 8 <= len(raw):
        chunk_id = raw[pos : pos + 4]
        (chunk_len,) = struct.unpack_from("<I", raw, pos + 4)
        body = raw[pos + 8 : pos + 8 + chunk_len]
        if chunk_id == b"fmt ":
            if len(body) < 16:
                raise CorruptFileError(f"{path}: truncated fmt chunk")
            fmt = struct.unpack_from("<HHIIHH", body, 0)
        elif chunk_id == b"data":
            if len(body) < chunk_len:
                raise CorruptFileError(f"{path}: truncated data chunk")
            data = body
        pos += 8 + chunk_len + (chunk_len & 1)
    if fmt is None or data is None:
        raise CorruptFileError(f"{path}: missing fmt or data chunk")
    audio_format, channels, sample_rate, _, _, bits = fmt
    if audio_format != 1:
        raise UnsupportedFormatError(f"{path}: only PCM is supported")
    if channels != 1:
        raise UnsupportedFormatError(f"{path}: only mono is supported")
    if bits != 16:
        raise UnsupportedFormatError(f"{path}: only 16-bit samples are supported")
    if len(data) < 2:
        raise CorruptFileError(f"{path}: empty data chunk")
    samples = np.frombuffer(data[: len(data) - (len(data) % 2)], dtype="<i2")
    return AudioClip(samples.astype(np.float64) / 32768.0, sample_rate)


def save_wav(path, clip: AudioClip) -> None:
    """Write a 16-bit PCM mono WAV (used by demos and tests)."""
    pcm = np.clip(np.round(clip.samples * 32767.0), -32768, 32767).astype("<i2")
    data = pcm.tobytes()
    hdr = b"RIFF" + struct.pack("<I", 36 + len(data)) + b"WAVE"
    hdr += b"fmt " + struct.pack(
        "<IHHIIHH", 16, 1, 1, clip.sample_rate, clip.sample_rate * 2, 2, 16
    )
    hdr += b"data" + struct.pack("<I", len(data))
    with open(path, "wb") as fh:
        fh.write(hdr + data)


def chunk_audio(clip: AudioClip, seconds: float) -> list[AudioClip]:
    """Non-overlapping fixed-length chunks; the trailing remainder is dropped."""
    if seconds <= 0:
        raise InvalidShapeError("chunk length must be positive")
    n = int(round(seconds * clip.sample_rate))
    count = clip.samples.size // n
    return [
        AudioClip(clip.samples[i * n : (i + 1) * n], clip.sample_rate)
        for i in range(count)
    ]


# -- MFCC ---------------------------------------------------------------------

def hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


def mel_filterbank(
    num_filters: int, n_fft: int, sample_rate: int, fmin: float, fmax: float
) -> np.ndarray:
    """Triangular filters, (num_filters, n_fft // 2 + 1), on the HTK scale.

    Triangle j rises from mel point j to j+1 and falls to j+2; adjacent
    triangles overlap so every bin strictly inside (fmin, fmax) carries
    weight in at least one filter.
    """
    points = mel_to_hz(np.linspace(hz_to_mel(fmin), hz_to_mel(fmax), num_filters + 2))
    bin_freqs = np.arange(n_fft // 2 + 1) * (sample_rate / n_fft)
    fb = np.zeros((num_filters, bin_freqs.size))
    for j in range(num_filters):
        left, center, right = points[j], points[j + 1], points[j + 2]
        rising = (bin_freqs - left) / (center - left)
        falling = (right - bin_freqs) / (right - center)
        fb[j] = np.maximum(0.0, np.minimum(rising, falling))
    return fb


def dct_matrix(num_out: int, num_in: int) -> np.ndarray:
    """Orthonormal DCT-II: row k, column n = c_k cos(pi k (2n + 1) / (2 N))."""
    n = np.arange(num_in)
    k = np.arange(num_out)[:, None]
    mat = np.cos(np.pi * k * (2 * n + 1) / (2 * num_in))
    mat *= np.sqrt(2.0 / num_in)
    mat[0] /= np.sqrt(2.0)
    return mat


def _hann(length: int) -> np.ndarray:
    return 0.5 * (1.0 - np.cos(2.0 * np.pi * np.arange(length) / length))


@lru_cache(maxsize=16)
def _mfcc_tables(cfg: MfccConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Hann window, transposed mel bank and transposed DCT for one config.

    Built once per (frozen, hashable) config and shared by every call, so
    the arrays are read-only.
    """
    window = _hann(cfg.frame_length)
    fb = mel_filterbank(
        cfg.num_mel_filters, cfg.frame_length, cfg.sample_rate, cfg.fmin, cfg.effective_fmax
    )
    dct = dct_matrix(cfg.num_coefficients, cfg.num_mel_filters)
    for table in (window, fb, dct):
        table.flags.writeable = False
    return window, fb.T, dct.T


def _center_pad(x: np.ndarray, pad: int) -> np.ndarray:
    # reflect when the signal allows it, zero-fill the remainder otherwise
    if pad < x.size:
        return np.pad(x, pad, mode="reflect")
    out = np.zeros(x.size + 2 * pad)
    out[pad : pad + x.size] = x
    if x.size > 1:
        out[pad - (x.size - 1) : pad] = x[1:][::-1]
        out[pad + x.size : pad + 2 * x.size - 1] = x[:-1][::-1]
    return out


def frame_count(num_samples: int, cfg: MfccConfig) -> int:
    if cfg.center_padding:
        return num_samples // cfg.hop_length + 1
    if num_samples < cfg.frame_length:
        return 0
    return (num_samples - cfg.frame_length) // cfg.hop_length + 1


def mfcc(clip: AudioClip, cfg: MfccConfig) -> Tensor:
    """MFCC spectrogram of shape (frames, num_coefficients)."""
    if clip.sample_rate != cfg.sample_rate:
        raise SampleRateMismatchError(
            f"clip is {clip.sample_rate} Hz, config expects {cfg.sample_rate} Hz"
        )
    frames = frame_count(clip.samples.size, cfg)
    if frames < 1:
        raise ClipTooShortError(
            f"{clip.samples.size} samples yield no {cfg.frame_length}-sample frame"
        )
    x = clip.samples
    if cfg.center_padding:
        x = _center_pad(x, cfg.frame_length // 2)
    window, fb_t, dct_t = _mfcc_tables(cfg)
    short = (frames - 1) * cfg.hop_length + cfg.frame_length - x.size
    if short > 0:  # odd frame lengths can leave the last frame one sample shy
        x = np.concatenate([x, np.zeros(short)])
    segs = sliding_window_view(x, cfg.frame_length)[:: cfg.hop_length][:frames]
    spectrum = np.empty((frames, cfg.frame_length // 2 + 1))
    for i in range(0, frames, FRAME_BLOCK):
        block = segs[i : i + FRAME_BLOCK] * window  # the one copy of these frames
        np.abs(np.fft.rfft(block, axis=1), out=spectrum[i : i + FRAME_BLOCK])
    logmel = np.log(np.maximum(spectrum @ fb_t, LOG_FLOOR))
    coeffs = logmel @ dct_t
    return Tensor(coeffs.astype(np.float32))
