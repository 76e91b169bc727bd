"""Audio front-end: WAV files, chunking and MFCC spectrograms.

Synthesizes a WAV, reads it back, slices it into fixed-length chunks and
converts each to the MFCC tensor the model branches consume. Also shows the
frame-count rule and the configs behind the three branch input shapes.

Run: python demos/04_audio_features.py
"""
import tempfile
from pathlib import Path

import numpy as np

from tinymm import AudioClip, MfccConfig, chunk_audio, load_wav, mfcc, save_wav

rng = np.random.default_rng(0)

# ---------------------------------------------------------------------------
# WAV round trip (16-bit PCM mono)
# ---------------------------------------------------------------------------
rate = 22050
t = np.arange(5 * rate) / rate
wave = 0.3 * np.sin(2 * np.pi * 440 * t) + 0.05 * rng.normal(size=t.size)
with tempfile.TemporaryDirectory() as workdir:
    path = Path(workdir) / "tone.wav"
    save_wav(path, AudioClip(wave, rate))
    clip = load_wav(path)
print(f"loaded {path.name}: {clip.samples.size} samples @ {clip.sample_rate} Hz "
      f"({clip.duration:.2f} s)")

# ---------------------------------------------------------------------------
# Chunking: non-overlapping windows, remainder dropped
# ---------------------------------------------------------------------------
chunks = chunk_audio(clip, 1.0)
print(f"5 s clip -> {len(chunks)} one-second chunks")

# ---------------------------------------------------------------------------
# MFCC: frames = floor(len / hop) + 1 with center padding
# ---------------------------------------------------------------------------
cfg = MfccConfig(sample_rate=rate, frame_length=2048, hop_length=512,
                 num_mel_filters=40, num_coefficients=13)
feats = mfcc(chunks[0], cfg)
print(f"1 s chunk -> MFCC {feats.shape}  "
      f"(floor({rate}/512) + 1 = {rate // 512 + 1} frames)")

# the three branch input shapes and the configs that produce them
branch_configs = {
    "44x13 (battlefield audio)": (MfccConfig(22050, 2048, 512, 40, 13), 1.0),
    "203x20 (cough)": (MfccConfig(22050, 2048, 218, 40, 20), 2.0),
    "333x13 (speech)": (MfccConfig(16600, 1024, 100, 40, 13), 2.0),
}
print()
for label, (c, seconds) in branch_configs.items():
    n = int(seconds * c.sample_rate)
    clip = AudioClip(rng.normal(size=n) * 0.2, c.sample_rate)
    f = mfcc(clip, c)
    print(f"{label:28} <- {seconds} s @ {c.sample_rate} Hz, hop {c.hop_length}: {f.shape}")
