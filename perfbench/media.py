"""Seeded inputs for the benchmark, written as files in the documented formats.

The writers here (RIFF PCM16 mono WAV, binary PPM P6, the TMMW weight blob)
are the benchmark's own, so the program under test reads bytes it did not
write itself.
"""
from __future__ import annotations

import json
import struct
import zlib
from pathlib import Path

import numpy as np

from reference import infer_shapes

MODELS_DIR = Path(__file__).resolve().parent / "models"
WEIGHT_SEED = 7  # the served model is fixed; --seed varies the media and request order


def load_config(model: str) -> dict:
    return json.loads((MODELS_DIR / f"{model}.json").read_text())


def model_weights(config: dict) -> dict[str, np.ndarray]:
    """He-normal weights, small biases and plausible batch-norm statistics."""
    rng = np.random.default_rng(WEIGHT_SEED)
    _, records = infer_shapes(config)
    out = {}
    for name, shape in records.items():
        key = name.rsplit(".", 1)[1]
        if key in ("w", "dw", "pw"):
            fan_in = int(np.prod(shape[:-1])) if key != "dw" else shape[0] * shape[1]
            vals = rng.normal(0.0, np.sqrt(2.0 / fan_in), size=shape)
        elif key == "b":
            vals = rng.normal(0.0, 0.01, size=shape)
        elif key in ("gamma", "var"):
            vals = rng.uniform(0.8, 1.2, size=shape)
        else:  # beta, mean
            vals = rng.normal(0.0, 0.05, size=shape)
        out[name] = vals.astype(np.float32)
    return out


def write_tmmw(path: Path, tensors: dict[str, np.ndarray]) -> None:
    """Float32 TMMW blob: magic, version 1, count, then CRC-checked records."""
    parts = [b"TMMW", struct.pack("<II", 1, len(tensors))]
    for name, arr in tensors.items():
        raw = name.encode("utf-8")
        body = struct.pack("<I", len(raw)) + raw + struct.pack("<BB", 0, arr.ndim)
        body += struct.pack(f"<{arr.ndim}I", *arr.shape)
        payload = arr.astype("<f4").tobytes()
        body += struct.pack("<I", len(payload)) + payload
        parts += [body, struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF)]
    path.write_bytes(b"".join(parts))


def write_wav(path: Path, pcm: np.ndarray, sample_rate: int) -> None:
    data = pcm.astype("<i2").tobytes()
    fmt = struct.pack("<IHHIIHH", 16, 1, 1, sample_rate, sample_rate * 2, 2, 16)
    path.write_bytes(b"RIFF" + struct.pack("<I", 36 + len(data)) + b"WAVE"
                     + b"fmt " + fmt + b"data" + struct.pack("<I", len(data)) + data)


def write_ppm(path: Path, pixels: np.ndarray) -> None:
    h, w, _ = pixels.shape
    path.write_bytes(f"P6\n{w} {h}\n255\n".encode() + pixels.astype(np.uint8).tobytes())


def synth_pcm(rng: np.random.Generator, sample_rate: int, seconds: float) -> np.ndarray:
    """Tones under a bursty envelope plus noise, as 16-bit samples."""
    n = int(round(sample_rate * seconds))
    t = np.arange(n) / sample_rate
    x = np.zeros(n)
    for _ in range(3):
        freq = rng.uniform(80.0, min(4000.0, sample_rate / 2 - 200.0))
        x += rng.uniform(0.05, 0.2) * np.sin(2 * np.pi * freq * t + rng.uniform(0, 2 * np.pi))
    centers = rng.uniform(0.0, seconds, size=3)
    env = 0.3 + np.exp(-(((t[:, None] - centers) / 0.08) ** 2)).sum(axis=1)
    x = x * env + rng.normal(0.0, 0.02, size=n)
    return np.round(np.clip(x, -0.95, 0.95) * 32767.0).astype(np.int16)


def synth_pixels(rng: np.random.Generator) -> np.ndarray:
    """A gradient with a few coloured boxes, never 32x32, so resizing runs."""
    h, w = (int(v) for v in rng.integers(40, 97, size=2))
    yy, xx = np.mgrid[0:h, 0:w]
    img = np.stack([xx / w, yy / h, (xx + yy) / (h + w)], axis=-1) * rng.uniform(80, 200, size=3)
    for _ in range(4):
        y0, x0 = rng.integers(0, h - 8), rng.integers(0, w - 8)
        img[y0 : y0 + rng.integers(4, 24), x0 : x0 + rng.integers(4, 24)] = rng.uniform(0, 255, size=3)
    img += rng.normal(0.0, 6.0, size=img.shape)
    return np.clip(np.round(img), 0, 255).astype(np.uint8)


class MediaMaker:
    """Writes one model input pair per call; each input gets its own file."""

    def __init__(self, config: dict):
        self.inputs = [(d["name"], d["source"]) for d in config["layers"] if d["kind"] == "input"]

    def pair(self, rng: np.random.Generator, directory: Path, stem: str) -> tuple[dict, dict]:
        """Returns (files by input name, raw media by input name)."""
        files, media = {}, {}
        for name, src in self.inputs:
            if src["type"] == "mfcc":
                sr = int(src["sample_rate"])
                media[name] = synth_pcm(rng, sr, float(src["chunk_seconds"]))
                files[name] = directory / f"{stem}.{name}.wav"
                write_wav(files[name], media[name], sr)
            else:
                media[name] = synth_pixels(rng)
                files[name] = directory / f"{stem}.{name}.ppm"
                write_ppm(files[name], media[name])
        return files, media
