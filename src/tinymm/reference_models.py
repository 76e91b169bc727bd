"""Built-in two-branch reference architectures.

"covid" pairs a cough-audio branch (203x20x1 MFCC input) with a
speech-audio branch (333x13x1) into a 2-way classifier head; "battlefield"
pairs an audio branch (44x13x1 MFCC) with a 32x32x3 image branch into a
4-way head. Weights are random with a fixed seed.

The cough/speech MFCC settings are reconstructions chosen so that a
2-second clip yields exactly the expected frame counts (the battlefield
audio settings follow directly from a 1-second clip at 22050 Hz with hop
512). Where a published layer listing is internally inconsistent, the
builders follow plain shape arithmetic; the affected speech-branch
intermediates come out as 331x11x32 and 163x3x16 but converge to the same
81x1x16 map and 1296-wide flatten.
"""
from __future__ import annotations

import math

import numpy as np

from .blob import DTYPE_F32, Record
from .graph import (
    SCHEMA,
    ModelGraph,
    _expected_records,
    _infer_shapes,
    _parse_layer,
    assemble_model,
)

DEFAULT_SEED = 7

REFERENCE_NAMES = ("covid", "battlefield")


def _branch(prefix: str, layers: list[dict]) -> list[dict]:
    """Prefix layer names and wire each layer to its predecessor."""
    out = []
    prev = None
    for doc in layers:
        doc = dict(doc)
        doc["name"] = f"{prefix}_{doc['name']}"
        if prev is not None:
            doc["inputs"] = [prev]
        prev = doc["name"]
        out.append(doc)
    return out


def _conv(name, out_channels, padding, bn=True):
    layers = [
        {"name": name, "kind": "conv2d", "out_channels": out_channels,
         "kernel_size": 3, "stride": 1, "padding": padding},
    ]
    if bn:
        layers.append({"name": f"{name}_bn", "kind": "batchnorm"})
    layers.append({"name": f"{name}_relu", "kind": "relu"})
    return layers


def _sep(name, out_channels, padding):
    return [
        {"name": name, "kind": "ds_conv2d", "out_channels": out_channels,
         "kernel_size": 3, "stride": 1, "padding": padding},
        {"name": f"{name}_relu", "kind": "relu"},
    ]


def _pool(name, size, rate=0.2):
    return [
        {"name": name, "kind": "maxpool", "pool_size": size},
        {"name": f"{name}_drop", "kind": "dropout", "rate": rate},
    ]


def _dense(name, width, rate=0.2):
    return [
        {"name": name, "kind": "dense", "out_features": width},
        {"name": f"{name}_relu", "kind": "relu"},
        {"name": f"{name}_drop", "kind": "dropout", "rate": rate},
    ]


def _covid_config() -> dict:
    cough = _branch("cough", [
        {"name": "in", "kind": "input", "shape": [203, 20, 1],
         "source": {"type": "mfcc", "sample_rate": 22050, "frame_length": 2048,
                    "hop_length": 218, "num_mel_filters": 40,
                    "num_coefficients": 20, "chunk_seconds": 2.0}},
        *_conv("conv1", 16, "valid"),
        *_sep("sep1", 32, "valid"),
        *_pool("pool1", 3),
        *_sep("sep2", 32, "valid"),
        *_pool("pool2", 3),
        {"name": "flat", "kind": "flatten"},
        *_dense("fc", 32),
    ])
    speech = _branch("speech", [
        {"name": "in", "kind": "input", "shape": [333, 13, 1],
         "source": {"type": "mfcc", "sample_rate": 16600, "frame_length": 1024,
                    "hop_length": 100, "num_mel_filters": 40,
                    "num_coefficients": 13, "chunk_seconds": 2.0}},
        *_conv("conv1", 64, "same"),
        *_sep("sep1", 32, "valid"),
        *_pool("pool1", 2),
        *_sep("sep2", 16, "valid"),
        *_pool("pool2", 2),
        {"name": "flat", "kind": "flatten"},
        *_dense("fc", 32),
    ])
    head = [
        {"name": "concat", "kind": "concat",
         "inputs": [cough[-1]["name"], speech[-1]["name"]]},
        *_branch("head", [
            {"name": "fc1", "kind": "dense", "out_features": 256, "inputs": ["concat"]},
            {"name": "fc1_relu", "kind": "relu"},
            {"name": "fc1_drop", "kind": "dropout", "rate": 0.2},
            {"name": "fc2", "kind": "dense", "out_features": 128},
            {"name": "fc2_relu", "kind": "relu"},
            {"name": "fc2_drop", "kind": "dropout", "rate": 0.2},
            {"name": "out", "kind": "dense", "out_features": 2},
            {"name": "probs", "kind": "softmax"},
        ]),
    ]
    return {"schema": SCHEMA, "name": "covid", "layers": cough + speech + head}


def _battlefield_config() -> dict:
    audio = _branch("audio", [
        {"name": "in", "kind": "input", "shape": [44, 13, 1],
         "source": {"type": "mfcc", "sample_rate": 22050, "frame_length": 2048,
                    "hop_length": 512, "num_mel_filters": 40,
                    "num_coefficients": 13, "chunk_seconds": 1.0}},
        *_conv("conv1", 64, "same"),
        *_sep("sep1", 32, "same"),
        *_pool("pool1", 2),
        *_sep("sep2", 64, "same"),
        *_pool("pool2", 2),
        {"name": "flat", "kind": "flatten"},
        *_dense("fc", 64),
    ])
    image = _branch("image", [
        {"name": "in", "kind": "input", "shape": [32, 32, 3],
         "source": {"type": "image", "height": 32, "width": 32}},
        *_conv("conv1", 64, "same"),
        *_sep("sep1", 64, "same"),
        *_pool("pool1", 2),
        *_sep("sep2", 64, "same"),
        *_pool("pool2", 2),
        {"name": "flat", "kind": "flatten"},
        *_dense("fc", 64),
    ])
    head = [
        {"name": "concat", "kind": "concat",
         "inputs": [audio[-1]["name"], image[-1]["name"]]},
        *_branch("head", [
            {"name": "fc1", "kind": "dense", "out_features": 64, "inputs": ["concat"]},
            {"name": "fc1_relu", "kind": "relu"},
            {"name": "fc1_drop", "kind": "dropout", "rate": 0.2},
            {"name": "out", "kind": "dense", "out_features": 4},
            {"name": "probs", "kind": "softmax"},
        ]),
    ]
    return {"schema": SCHEMA, "name": "battlefield", "layers": audio + image + head}


def reference_config(name: str) -> dict:
    if name == "covid":
        return _covid_config()
    if name == "battlefield":
        return _battlefield_config()
    raise KeyError(f"unknown reference model {name!r}; choose from {REFERENCE_NAMES}")


def _he_normal(rng, shape):
    """Weight draw (w, dw, pw): fan-in is every axis but the output one."""
    return rng.normal(0.0, np.sqrt(2.0 / math.prod(shape[:-1])), size=shape)


# seeded draw per record suffix; any other suffix is a weight tensor
_DRAWS = {
    "b": lambda rng, shape: rng.normal(0.0, 0.01, size=shape),
    "gamma": lambda rng, shape: rng.uniform(0.9, 1.1, size=shape),
    "beta": lambda rng, shape: rng.normal(0.0, 0.05, size=shape),
    "mean": lambda rng, shape: rng.normal(0.0, 0.05, size=shape),
    "var": lambda rng, shape: rng.uniform(0.8, 1.2, size=shape),
}


def reference_weight_records(name: str, seed: int = DEFAULT_SEED) -> list[Record]:
    """Seeded random weights for every record a reference config expects."""
    config = reference_config(name)
    layers = [_parse_layer(d) for d in config["layers"]]
    shapes = _infer_shapes(layers, config["layers"])
    rng = np.random.default_rng(seed)
    records: list[Record] = []
    for layer in layers:
        for rec_name, shape in _expected_records(layer, shapes).items():
            values = _DRAWS.get(rec_name.rsplit(".", 1)[1], _he_normal)(rng, shape)
            records.append(Record(rec_name, DTYPE_F32, shape, values.astype(np.float32).reshape(-1)))
    return records


def build_reference(name: str, seed: int = DEFAULT_SEED) -> ModelGraph:
    """Assemble a reference model with seeded random weights."""
    records = {r.name: r for r in reference_weight_records(name, seed)}
    return assemble_model(reference_config(name), records)
