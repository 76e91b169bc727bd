import struct

import numpy as np
import pytest

import tinymm.audio as audio_mod
from tinymm.audio import (
    DEFAULT_MFCC,
    FRAME_BLOCK,
    AudioClip,
    MfccConfig,
    _center_pad,
    _mfcc_tables,
    chunk_audio,
    dct_matrix,
    frame_count,
    hz_to_mel,
    load_wav,
    mel_filterbank,
    mel_to_hz,
    mfcc,
    save_wav,
)
from tinymm.errors import (
    ClipTooShortError,
    CorruptFileError,
    SampleRateMismatchError,
    UnsupportedFormatError,
)
from tinymm.reference_models import reference_config

from oracles import dft_filter_energies

CFG_44 = MfccConfig(sample_rate=22050, frame_length=2048, hop_length=512,
                    num_mel_filters=40, num_coefficients=13)


def _sine(freq, seconds, rate, amp=0.5):
    t = np.arange(int(seconds * rate)) / rate
    return AudioClip(amp * np.sin(2 * np.pi * freq * t), rate)


# -- WAV ------------------------------------------------------------------------

def test_wav_round_trip(tmp_path):
    clip = _sine(440, 1.0, 22050, amp=0.7)
    path = tmp_path / "a.wav"
    save_wav(path, clip)
    back = load_wav(path)
    assert back.sample_rate == 22050
    assert back.samples.size == 22050
    assert abs(back.samples.max() - 0.7) < 1e-3


def _wav_bytes(audio_format=1, channels=1, rate=22050, bits=16, frames=100):
    data = b"\x00" * (frames * channels * bits // 8)
    block = channels * bits // 8
    out = b"RIFF" + struct.pack("<I", 36 + len(data)) + b"WAVE"
    out += b"fmt " + struct.pack("<IHHIIHH", 16, audio_format, channels, rate, rate * block, block, bits)
    out += b"data" + struct.pack("<I", len(data)) + data
    return out


def test_wav_unsupported_formats(tmp_path):
    cases = {
        "8bit.wav": _wav_bytes(bits=8),
        "stereo.wav": _wav_bytes(channels=2),
        "float.wav": _wav_bytes(audio_format=3),
    }
    for name, raw in cases.items():
        path = tmp_path / name
        path.write_bytes(raw)
        with pytest.raises(UnsupportedFormatError):
            load_wav(path)


def test_wav_corrupt_files(tmp_path):
    empty = tmp_path / "empty.wav"
    empty.write_bytes(_wav_bytes(frames=0))
    with pytest.raises(CorruptFileError):
        load_wav(empty)
    bad = tmp_path / "bad.wav"
    bad.write_bytes(b"NOPE" + b"\x00" * 40)
    with pytest.raises(CorruptFileError):
        load_wav(bad)
    short = tmp_path / "short.wav"
    short.write_bytes(_wav_bytes()[:20])
    with pytest.raises(CorruptFileError):
        load_wav(short)


# -- chunking ---------------------------------------------------------------------

def test_chunking():
    rate = 8000
    assert len(chunk_audio(_sine(100, 5.0, rate), 2.0)) == 2
    one = chunk_audio(_sine(100, 2.0, rate), 2.0)
    assert len(one) == 1
    assert np.array_equal(one[0].samples, _sine(100, 2.0, rate).samples)
    assert chunk_audio(_sine(100, 1.9, rate), 2.0) == []


# -- MFCC ----------------------------------------------------------------------------

def test_mfcc_shape_44x13():
    feats = mfcc(_sine(440, 1.0, 22050), CFG_44)
    assert feats.shape == (44, 13)


def test_mfcc_silent_clip_constant_frames():
    clip = AudioClip(np.zeros(22050), 22050)
    feats = mfcc(clip, CFG_44)
    assert feats.shape == (44, 13)
    assert np.all(feats.data == feats.data[0])


def test_mfcc_sample_rate_mismatch():
    with pytest.raises(SampleRateMismatchError):
        mfcc(_sine(440, 1.0, 16000), CFG_44)


def test_mfcc_too_short_without_padding():
    cfg = MfccConfig(sample_rate=8000, frame_length=512, hop_length=256,
                     num_mel_filters=20, num_coefficients=10, center_padding=False)
    with pytest.raises(ClipTooShortError):
        mfcc(AudioClip(np.zeros(100), 8000), cfg)


def test_frame_count_formula_holds_for_tiny_clips():
    rng = np.random.default_rng(0)
    cfg = MfccConfig(sample_rate=8000, frame_length=256, hop_length=64,
                     num_mel_filters=20, num_coefficients=10)
    for _ in range(25):
        n = int(rng.integers(1, 2000))
        clip = AudioClip(rng.normal(size=n) * 0.1, 8000)
        feats = mfcc(clip, cfg)
        assert feats.shape == (n // 64 + 1, 10)
        assert frame_count(n, cfg) == n // 64 + 1


def test_mfcc_deterministic():
    rng = np.random.default_rng(1)
    clip = AudioClip(rng.normal(size=22050) * 0.2, 22050)
    a = mfcc(clip, CFG_44)
    b = mfcc(clip, CFG_44)
    assert np.array_equal(a.data, b.data)


def test_mfcc_gain_moves_first_coefficient_most():
    rng = np.random.default_rng(2)
    clip = AudioClip(rng.normal(size=22050) * 0.1, 22050)
    louder = AudioClip(clip.samples * 4.0, 22050)
    a = mfcc(clip, CFG_44).data
    b = mfcc(louder, CFG_44).data
    d0 = np.abs(b[:, 0] - a[:, 0]).max()
    dhi = np.abs(b[:, 1:] - a[:, 1:]).max()
    assert d0 > 0
    assert dhi < d0


def test_dct_matrix_orthonormal():
    d = dct_matrix(40, 40)
    assert np.abs(d.T @ d - np.eye(40)).max() < 1e-10


def test_mel_scale_inverse():
    f = np.linspace(0, 11025, 50)
    assert np.allclose(mel_to_hz(hz_to_mel(f)), f, atol=1e-6)


def test_filterbank_rows_positive_and_band_covered():
    fb = mel_filterbank(40, 2048, 22050, 0.0, 11025.0)
    assert fb.shape == (40, 1025)
    assert np.all(fb.sum(axis=1) > 0)
    bin_freqs = np.arange(1025) * (22050 / 2048)
    inside = (bin_freqs > 0.0) & (bin_freqs < 11025.0)
    assert np.all(fb.sum(axis=0)[inside] > 0)


def test_sine_at_filter_center_concentrates_energy():
    # single frame, small FFT so the direct DFT oracle stays cheap
    rate = 8000
    n_fft = 256
    fb = mel_filterbank(12, n_fft, rate, 0.0, rate / 2)
    points = mel_to_hz(np.linspace(hz_to_mel(0.0), hz_to_mel(rate / 2), 14))
    j = 5
    center = points[j + 1]
    t = np.arange(n_fft) / rate
    frame = np.sin(2 * np.pi * center * t)
    window = 0.5 * (1.0 - np.cos(2.0 * np.pi * np.arange(n_fft) / n_fft))
    energies = dft_filter_energies(frame * window, fb, n_fft)
    assert int(np.argmax(energies)) == j
    spectrum = np.abs(np.fft.rfft(frame * window, n_fft))
    assert np.allclose(fb @ spectrum, energies, atol=1e-8)


# -- MFCC against the frame-by-frame formulation ------------------------------------

def _mfcc_stacked(clip, cfg):
    """The MFCC pipeline built one frame at a time, with every table rebuilt
    per call; `mfcc` must equal it bit for bit."""
    x = clip.samples
    if cfg.center_padding:
        x = _center_pad(x, cfg.frame_length // 2)
    window = 0.5 * (1.0 - np.cos(2.0 * np.pi * np.arange(cfg.frame_length) / cfg.frame_length))
    starts = np.arange(frame_count(clip.samples.size, cfg)) * cfg.hop_length
    short = int(starts[-1]) + cfg.frame_length - x.size
    if short > 0:
        x = np.concatenate([x, np.zeros(short)])
    segs = np.stack([x[s : s + cfg.frame_length] for s in starts])
    spectrum = np.abs(np.fft.rfft(segs * window, axis=1))
    fb = mel_filterbank(
        cfg.num_mel_filters, cfg.frame_length, cfg.sample_rate, cfg.fmin, cfg.effective_fmax
    )
    logmel = np.log(np.maximum(spectrum @ fb.T, 1e-10))
    coeffs = logmel @ dct_matrix(cfg.num_coefficients, cfg.num_mel_filters).T
    return coeffs.astype(np.float32)


def _reference_mfcc_configs():
    out = []
    for model in ("covid", "battlefield"):
        for layer in reference_config(model)["layers"]:
            src = layer.get("source") or {}
            if src.get("type") == "mfcc":
                out.append((MfccConfig.from_dict(src), src["chunk_seconds"]))
    return out


_ODD = MfccConfig(sample_rate=8000, frame_length=255, hop_length=64,
                  num_mel_filters=20, num_coefficients=10)
_BLOCKS = MfccConfig(sample_rate=8000, frame_length=256, hop_length=64,
                     num_mel_filters=20, num_coefficients=10)
_WIDE_PAD = MfccConfig(sample_rate=8000, frame_length=512, hop_length=128,
                       num_mel_filters=20, num_coefficients=10)
_MFCC_CASES = [
    *_reference_mfcc_configs(),
    (DEFAULT_MFCC, 1.0),
    (_ODD, 0.8),  # 6400 + 2 * 127 = 6654 padded samples; the last frame needs index 6654
    (MfccConfig(sample_rate=16000, frame_length=400, hop_length=160, num_mel_filters=26,
                num_coefficients=13, center_padding=False), 0.53),
    (_WIDE_PAD, 0.0125),  # 100 samples < the 256-sample pad: zero-filled reflection
    (_WIDE_PAD, 1 / 8000),  # a single sample: nothing to reflect
    (_BLOCKS, (2 * FRAME_BLOCK - 1) * 64 / 8000),  # exactly two frame blocks
    (MfccConfig(sample_rate=22050, frame_length=1024, hop_length=256, num_mel_filters=32,
                num_coefficients=12, fmin=300.0, fmax=6000.0), 0.7),
]


@pytest.mark.parametrize("cfg,seconds", _MFCC_CASES, ids=[
    "covid-cough", "covid-speech", "battlefield", "default", "odd-frame", "no-center",
    "shorter-than-pad", "one-sample", "two-blocks", "fmin-fmax",
])
def test_mfcc_bit_identical_to_stacked_frames(cfg, seconds):
    rng = np.random.default_rng(cfg.frame_length + cfg.hop_length)
    n = int(round(seconds * cfg.sample_rate))
    t = np.arange(n) / cfg.sample_rate
    clip = AudioClip(0.3 * np.sin(2 * np.pi * 440 * t) + 0.1 * rng.standard_normal(n), cfg.sample_rate)
    for _ in range(2):  # the second call reads the cached tables
        assert np.array_equal(mfcc(clip, cfg).data, _mfcc_stacked(clip, cfg))


def test_mfcc_tables_read_only_and_shared(monkeypatch):
    cfg = MfccConfig(sample_rate=8000, frame_length=256, hop_length=80,
                     num_mel_filters=16, num_coefficients=8)
    tables = _mfcc_tables(cfg)
    same = _mfcc_tables(MfccConfig.from_dict(cfg.to_dict()))  # an equal, distinct config
    assert all(a is b for a, b in zip(tables, same))
    window, fb_t, dct_t = tables
    assert fb_t.shape == (129, 16) and dct_t.shape == (16, 8) and window.shape == (256,)
    for t in tables:
        assert not t.flags.writeable
        with pytest.raises(ValueError):
            t[0] = 1.0
    # once cached, a request rebuilds no table
    clip = AudioClip(np.random.default_rng(3).normal(size=800) * 0.1, 8000)
    want = mfcc(clip, cfg).data

    def rebuilt(*args):
        raise AssertionError("table rebuilt for a cached config")

    monkeypatch.setattr(audio_mod, "mel_filterbank", rebuilt)
    monkeypatch.setattr(audio_mod, "dct_matrix", rebuilt)
    assert np.array_equal(mfcc(clip, cfg).data, want)


def test_mfcc_does_not_touch_the_clip():
    rng = np.random.default_rng(4)
    for center in (True, False):
        cfg = MfccConfig(sample_rate=8000, frame_length=256, hop_length=64,
                         num_mel_filters=20, num_coefficients=10, center_padding=center)
        clip = AudioClip(rng.normal(size=1000) * 0.1, 8000)
        before = clip.samples.copy()
        clip.samples.flags.writeable = False  # an in-place write would raise
        mfcc(clip, cfg)
        assert np.array_equal(clip.samples, before)
