"""Float64 reference of a tinymm-model-v1 model, written independently of tinymm.

It covers the whole request path: the MFCC and image front-ends as the
model format documents them, and a forward pass that applies batch norm
directly instead of folding it. Float outputs of the program are checked
against it.
"""
from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

BN_EPS = 1e-3
LOG_FLOOR = 1e-10


def _conv_dim(d: int, k: int, stride: int, padding: str) -> int:
    return d if padding == "same" else (d - k) // stride + 1


def infer_shapes(config: dict) -> tuple[dict[str, tuple], dict[str, tuple]]:
    """Output shape of every layer, and the shape of every weight record."""
    shapes: dict[str, tuple] = {}
    records: dict[str, tuple] = {}
    for doc in config["layers"]:
        name, kind = doc["name"], doc["kind"]
        if kind == "input":
            shapes[name] = tuple(doc["shape"])
            continue
        src = shapes[doc["inputs"][0]]
        if kind in ("conv2d", "ds_conv2d"):
            k, n, m = doc["kernel_size"], doc["out_channels"], src[2]
            s, pad = doc.get("stride", 1), doc.get("padding", "valid")
            shapes[name] = (_conv_dim(src[0], k, s, pad), _conv_dim(src[1], k, s, pad), n)
            if kind == "conv2d":
                records[f"{name}.w"] = (k, k, m, n)
            else:
                records[f"{name}.dw"] = (k, k, m)
                records[f"{name}.pw"] = (1, 1, m, n)
            records[f"{name}.b"] = (n,)
        elif kind == "batchnorm":
            for key in ("gamma", "beta", "mean", "var"):
                records[f"{name}.{key}"] = (src[-1],)
            shapes[name] = src
        elif kind == "dense":
            records[f"{name}.w"] = (src[0], doc["out_features"])
            records[f"{name}.b"] = (doc["out_features"],)
            shapes[name] = (doc["out_features"],)
        elif kind == "maxpool":
            p = doc["pool_size"]
            shapes[name] = (src[0] // p, src[1] // p, src[2])
        elif kind == "flatten":
            shapes[name] = (int(np.prod(src)),)
        elif kind == "concat":
            shapes[name] = (sum(shapes[i][0] for i in doc["inputs"]),)
        else:  # relu, dropout, softmax
            shapes[name] = src
    return shapes, records


def _mel_filterbank(num_filters: int, n_fft: int, sr: int, fmin: float, fmax: float) -> np.ndarray:
    def to_mel(f):
        return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)

    mels = np.linspace(to_mel(fmin), to_mel(fmax), num_filters + 2)
    hz = 700.0 * (10.0 ** (mels / 2595.0) - 1.0)
    freqs = np.arange(n_fft // 2 + 1) * (sr / n_fft)
    lo, mid, hi = hz[:-2, None], hz[1:-1, None], hz[2:, None]
    return np.maximum(0.0, np.minimum((freqs - lo) / (mid - lo), (hi - freqs) / (hi - mid)))


def _dct_ortho(num_out: int, num_in: int) -> np.ndarray:
    k = np.arange(num_out)[:, None]
    mat = np.cos(np.pi * k * (2 * np.arange(num_in) + 1) / (2 * num_in)) * np.sqrt(2.0 / num_in)
    mat[0] /= np.sqrt(2.0)
    return mat


class _Mfcc:
    """Center-padded, periodic-Hann, HTK-mel, orthonormal-DCT MFCC."""

    def __init__(self, src: dict):
        self.sr = int(src["sample_rate"])
        self.fl = int(src["frame_length"])
        self.hop = int(src["hop_length"])
        self.chunk = int(round(float(src["chunk_seconds"]) * self.sr))
        fmax = src.get("fmax") or self.sr / 2
        self.fb = _mel_filterbank(int(src["num_mel_filters"]), self.fl, self.sr,
                                  float(src.get("fmin", 0.0)), float(fmax))
        self.dct = _dct_ortho(int(src["num_coefficients"]), int(src["num_mel_filters"]))
        self.window = 0.5 * (1.0 - np.cos(2.0 * np.pi * np.arange(self.fl) / self.fl))

    def __call__(self, pcm: np.ndarray) -> np.ndarray:
        x = pcm[: self.chunk].astype(np.float64) / 32768.0
        frames = x.size // self.hop + 1
        x = np.pad(x, self.fl // 2, mode="reflect")
        short = (frames - 1) * self.hop + self.fl - x.size
        if short > 0:
            x = np.concatenate([x, np.zeros(short)])
        segs = sliding_window_view(x, self.fl)[:: self.hop][:frames]
        spectrum = np.abs(np.fft.rfft(segs * self.window, axis=1))
        return np.log(np.maximum(spectrum @ self.fb.T, LOG_FLOOR)) @ self.dct.T


def _bilinear(pixels: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    img = pixels.astype(np.float64) / 255.0
    h, w = img.shape[:2]

    def axis(n_out, n_in):
        pos = (np.arange(n_out) + 0.5) * (n_in / n_out) - 0.5
        i0 = np.clip(np.floor(pos).astype(int), 0, n_in - 1)
        return i0, np.minimum(i0 + 1, n_in - 1), np.clip(pos - i0, 0.0, 1.0)

    y0, y1, wy = axis(out_h, h)
    x0, x1, wx = axis(out_w, w)
    wy, wx = wy[:, None, None], wx[None, :, None]
    top = img[y0][:, x0] * (1 - wx) + img[y0][:, x1] * wx
    bot = img[y1][:, x0] * (1 - wx) + img[y1][:, x1] * wx
    return top * (1 - wy) + bot * wy


def _pad(x: np.ndarray, k: int, padding: str) -> np.ndarray:
    if padding != "same":
        return x
    lo = (k - 1) // 2
    return np.pad(x, ((lo, k - 1 - lo), (lo, k - 1 - lo), (0, 0)))


class Reference:
    """Raw media in, class probabilities out, all in float64."""

    def __init__(self, config: dict, weights: dict[str, np.ndarray]):
        self.layers = config["layers"]
        self.w = {k: v.astype(np.float64) for k, v in weights.items()}
        self.front = {}
        for doc in self.layers:
            if doc["kind"] != "input":
                continue
            src = doc["source"]
            if src["type"] == "mfcc":
                self.front[doc["name"]] = _Mfcc(src)
            else:
                h, w = int(src["height"]), int(src["width"])
                self.front[doc["name"]] = lambda px, h=h, w=w: _bilinear(px, h, w)

    def probs(self, media: dict[str, np.ndarray]) -> np.ndarray:
        """media maps each input name to int16 PCM or (H, W, 3) uint8 pixels."""
        vals: dict[str, np.ndarray] = {}
        for doc in self.layers:
            name, kind = doc["name"], doc["kind"]
            if kind == "input":
                vals[name] = self.front[name](media[name]).reshape(doc["shape"])
                continue
            x = vals[doc["inputs"][0]]
            if kind == "conv2d":
                k, s = doc["kernel_size"], doc.get("stride", 1)
                win = sliding_window_view(_pad(x, k, doc.get("padding", "valid")), (k, k), axis=(0, 1))
                win = win[::s, ::s]  # (H', W', M, k, k)
                w = self.w[f"{name}.w"].transpose(2, 0, 1, 3)  # (M, k, k, N)
                y = np.tensordot(win, w, axes=([2, 3, 4], [0, 1, 2])) + self.w[f"{name}.b"]
            elif kind == "ds_conv2d":
                k, s = doc["kernel_size"], doc.get("stride", 1)
                xp = _pad(x, k, doc.get("padding", "valid"))
                h, w = (xp.shape[0] - k) // s + 1, (xp.shape[1] - k) // s + 1
                dw = self.w[f"{name}.dw"]
                mid = sum(xp[i : i + (h - 1) * s + 1 : s, j : j + (w - 1) * s + 1 : s] * dw[i, j]
                          for i in range(k) for j in range(k))
                pw = self.w[f"{name}.pw"]
                y = mid @ pw.reshape(pw.shape[2], pw.shape[3]) + self.w[f"{name}.b"]
            elif kind == "batchnorm":
                g, b = self.w[f"{name}.gamma"], self.w[f"{name}.beta"]
                mean, var = self.w[f"{name}.mean"], self.w[f"{name}.var"]
                y = (x - mean) / np.sqrt(var + BN_EPS) * g + b
            elif kind == "dense":
                y = x @ self.w[f"{name}.w"] + self.w[f"{name}.b"]
            elif kind == "relu":
                y = np.maximum(x, 0.0)
            elif kind == "maxpool":
                p = doc["pool_size"]
                h, w, c = x.shape[0] // p, x.shape[1] // p, x.shape[2]
                y = x[: h * p, : w * p].reshape(h, p, w, p, c).max(axis=(1, 3))
            elif kind == "flatten":
                y = x.reshape(-1)
            elif kind == "concat":
                y = np.concatenate([vals[i] for i in doc["inputs"]])
            elif kind == "softmax":
                e = np.exp(x - x.max())
                y = e / e.sum()
            else:  # dropout is the identity at inference
                y = x
            vals[name] = y
        return vals[self.layers[-1]["name"]]
