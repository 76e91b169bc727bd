"""Small two-branch model used by graph/CLI tests (fast to execute)."""
import json

import numpy as np

from tinymm.blob import DTYPE_F32, Record
from tinymm.graph import SCHEMA, assemble_model


def tiny_config(with_bn=True):
    a = [
        {"name": "a_in", "kind": "input", "shape": [6, 6, 1]},
        {"name": "a_conv", "kind": "conv2d", "inputs": ["a_in"],
         "out_channels": 2, "kernel_size": 3, "padding": "valid"},
    ]
    prev = "a_conv"
    if with_bn:
        a.append({"name": "a_bn", "kind": "batchnorm", "inputs": ["a_conv"]})
        prev = "a_bn"
    a += [
        {"name": "a_relu", "kind": "relu", "inputs": [prev]},
        {"name": "a_pool", "kind": "maxpool", "inputs": ["a_relu"], "pool_size": 2},
        {"name": "a_flat", "kind": "flatten", "inputs": ["a_pool"]},
        {"name": "a_fc", "kind": "dense", "inputs": ["a_flat"], "out_features": 4},
    ]
    b = [
        {"name": "b_in", "kind": "input", "shape": [5, 5, 2]},
        {"name": "b_sep", "kind": "ds_conv2d", "inputs": ["b_in"],
         "out_channels": 3, "kernel_size": 3, "padding": "same"},
        {"name": "b_relu", "kind": "relu", "inputs": ["b_sep"]},
        {"name": "b_flat", "kind": "flatten", "inputs": ["b_relu"]},
        {"name": "b_fc", "kind": "dense", "inputs": ["b_flat"], "out_features": 4},
    ]
    head = [
        {"name": "join", "kind": "concat", "inputs": ["a_fc", "b_fc"]},
        {"name": "h_fc", "kind": "dense", "inputs": ["join"], "out_features": 3},
        {"name": "h_drop", "kind": "dropout", "inputs": ["h_fc"], "rate": 0.2},
        {"name": "probs", "kind": "softmax", "inputs": ["h_drop"]},
    ]
    return {"schema": SCHEMA, "name": "tiny", "layers": a + b + head}


def tiny_records(seed=0, with_bn=True, zero_weights=False):
    rng = np.random.default_rng(seed)

    def rec(name, shape):
        if zero_weights:
            vals = np.zeros(int(np.prod(shape)), dtype=np.float32)
        else:
            vals = rng.normal(0, 0.5, size=int(np.prod(shape))).astype(np.float32)
        return Record(name, DTYPE_F32, tuple(shape), vals)

    records = [
        rec("a_conv.w", (3, 3, 1, 2)), rec("a_conv.b", (2,)),
        rec("a_fc.w", (8, 4)), rec("a_fc.b", (4,)),
        rec("b_sep.dw", (3, 3, 2)), rec("b_sep.pw", (1, 1, 2, 3)), rec("b_sep.b", (3,)),
        rec("b_fc.w", (75, 4)), rec("b_fc.b", (4,)),
        rec("h_fc.w", (8, 3)), rec("h_fc.b", (3,)),
    ]
    if with_bn:
        records += [
            Record("a_bn.gamma", DTYPE_F32, (2,), rng.uniform(0.8, 1.2, 2).astype(np.float32)),
            Record("a_bn.beta", DTYPE_F32, (2,), rng.normal(0, 0.1, 2).astype(np.float32)),
            Record("a_bn.mean", DTYPE_F32, (2,), rng.normal(0, 0.1, 2).astype(np.float32)),
            Record("a_bn.var", DTYPE_F32, (2,), rng.uniform(0.5, 1.5, 2).astype(np.float32)),
        ]
    return records


def tiny_model(seed=0, with_bn=True, zero_weights=False):
    records = {r.name: r for r in tiny_records(seed, with_bn, zero_weights)}
    return assemble_model(tiny_config(with_bn), records)


def wide_config():
    """A two-branch model whose 32,897-input dense layer `a_fc` can overflow a
    32-bit accumulator at 8 bits but not at 4."""
    return {"schema": SCHEMA, "name": "wide", "layers": [
        {"name": "a_in", "kind": "input", "shape": [32897]},
        {"name": "a_fc", "kind": "dense", "inputs": ["a_in"], "out_features": 2},
        {"name": "b_in", "kind": "input", "shape": [2]},
        {"name": "b_fc", "kind": "dense", "inputs": ["b_in"], "out_features": 2},
        {"name": "join", "kind": "concat", "inputs": ["a_fc", "b_fc"]},
        {"name": "h_fc", "kind": "dense", "inputs": ["join"], "out_features": 2},
        {"name": "probs", "kind": "softmax", "inputs": ["h_fc"]},
    ]}


def wide_records(seed=13):
    rng = np.random.default_rng(seed)
    shapes = {"a_fc.w": (32897, 2), "b_fc.w": (2, 2), "h_fc.w": (4, 2),
              "a_fc.b": (2,), "b_fc.b": (2,), "h_fc.b": (2,)}
    return {n: Record(n, DTYPE_F32, s, rng.normal(size=s).astype(np.float32).reshape(-1))
            for n, s in shapes.items()}


# JSON values a malformed config may hold where another type belongs
# (json.load also accepts NaN and Infinity)
CONFIG_JUNK = (
    None, True, -1, 0, 3, 2.5, 1e300, 10**400, float("nan"), float("inf"),
    "", "x", "8", "same", "mfcc", [], [1, 2], ["a"], {}, {"a": 1}, {"type": "mfcc"},
)


def _paths(node, path=()):
    """Every key path inside a JSON document, parents before children."""
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield path + (key,)
        yield from _paths(child, path + (key,))


def mutated_config(config, rng):
    """Copy of config with 1-3 seeded edits: a value anywhere in the
    document replaced by junk, a key or list item deleted, or junk
    sensitivity_overrides."""
    doc = json.loads(json.dumps(config))

    def junk():
        return json.loads(json.dumps(CONFIG_JUNK[int(rng.integers(len(CONFIG_JUNK)))]))

    for _ in range(int(rng.integers(1, 4))):
        paths = list(_paths(doc))
        if not paths:
            break
        path = paths[int(rng.integers(len(paths)))]
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        op = rng.random()
        if op < 0.2:
            del parent[path[-1]]
        elif op < 0.3:
            doc["sensitivity_overrides"] = junk()
        else:
            parent[path[-1]] = junk()
    return doc
