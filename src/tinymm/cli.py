"""Command-line surface.

    tinymm inspect   MODEL [--weights BLOB] [--out FILE]
    tinymm allocate  MODEL [--weights BLOB] [--size-budget BITS]
                     [--bops-budget N] [--sweep B1,B2,...] [--out FILE]
    tinymm quantize  MODEL --assignment FILE --calibration-dir DIR
                     [--weights BLOB] --out BLOB
    tinymm infer     MODEL [--weights BLOB] --audio A.wav
                     (--audio2 B.wav | --image IMG.ppm)
                     [--quantized ASSIGNMENT] [--parallel] [--out FILE]
    tinymm bench     MODEL [--weights BLOB] [--reps N]
                     [--quantized ASSIGNMENT] [--out FILE]

MODEL is a config path or a built-in name ("covid", "battlefield"); for
built-ins, weights are generated from --seed when --weights is omitted.
Exit codes: 0 ok, 2 load failure, 3 infeasible budgets, 4 calibration
failure, 5 input/preprocessing failure.

With --quantized, infer calibrates on the supplied input pair itself
(one-shot float pre-pass) before running integer inference; bench
calibrates on its synthesized inputs.
"""
from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from . import allocate as alloc
from . import audio as aud
from . import blob as blobio
from . import graph as g
from . import image as img
from .costs import format_table, report_to_dict
from .errors import (
    EmptyCalibrationSetError,
    InfeasibleError,
    MissingCalibrationError,
    TinymmError,
)
from .reference_models import (
    DEFAULT_SEED,
    REFERENCE_NAMES,
    build_reference,
    reference_config,
)
from .tensor import Tensor

EXIT_OK = 0
EXIT_LOAD = 2
EXIT_INFEASIBLE = 3
EXIT_CALIBRATION = 4
EXIT_INPUT = 5


class CliFailure(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _load_model(model: str, weights: str | None, seed: int) -> g.ModelGraph:
    try:
        if model in REFERENCE_NAMES:
            if weights is None:
                return build_reference(model, seed)
            return g.assemble_model(reference_config(model), blobio.read_blob(weights))
        if weights is None:
            raise CliFailure(EXIT_LOAD, f"--weights is required for model file {model}")
        if not Path(model).exists():
            raise CliFailure(EXIT_LOAD, f"no such model config: {model}")
        return g.load_model(model, weights)
    except TinymmError as exc:
        raise CliFailure(EXIT_LOAD, f"cannot load model: {exc}") from exc


def _write_json(path: str | None, doc: dict) -> None:
    if path is None:
        return
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


# -- input preprocessing -------------------------------------------------------

def _input_source(graph: g.ModelGraph, name: str) -> dict:
    layer = graph.layer(name)
    return layer.source or {"type": "raw"}


def _prep_audio(graph: g.ModelGraph, name: str, path: str) -> Tensor:
    source = _input_source(graph, name)
    cfg = aud.MfccConfig.from_dict(source)
    clip = aud.load_wav(path)
    if clip.sample_rate != cfg.sample_rate:
        raise CliFailure(
            EXIT_INPUT,
            f"{path}: sample rate {clip.sample_rate} Hz, expected {cfg.sample_rate} Hz",
        )
    chunks = aud.chunk_audio(clip, float(source.get("chunk_seconds", clip.duration)))
    if not chunks:
        raise CliFailure(EXIT_INPUT, f"{path}: clip shorter than one chunk")
    feats = aud.mfcc(chunks[0], cfg)
    want = graph.shapes[name]
    if feats.shape != want[:2]:
        raise CliFailure(
            EXIT_INPUT, f"{path}: features {feats.shape} do not match input {want}"
        )
    return feats.reshape(want)


def _prep_image(graph: g.ModelGraph, name: str, path: str) -> Tensor:
    want = graph.shapes[name]
    pixels = img.load_ppm(path)
    return img.image_to_input(pixels, want[0], want[1])


# per source type: how a media file becomes an input, and the infer flags
# that name those files, in the order the config lists such inputs
_PREP = {"mfcc": _prep_audio, "image": _prep_image}
_FLAGS = {"mfcc": ("audio", "audio2"), "image": ("image",)}


def _media_kind(graph: g.ModelGraph, name: str) -> str:
    kind = _input_source(graph, name).get("type")
    if kind not in _PREP:
        raise CliFailure(EXIT_INPUT, f"input {name!r} has no audio or image source to read")
    return kind


def _gather_inputs(graph: g.ModelGraph, args) -> dict[str, Tensor]:
    flags = {kind: iter(names) for kind, names in _FLAGS.items()}
    inputs: dict[str, Tensor] = {}
    try:
        for name in graph.input_names:
            kind = _media_kind(graph, name)
            flag = next(flags[kind], None)
            if flag is None:
                raise CliFailure(EXIT_INPUT, f"infer has no flag for another {kind} input ({name!r})")
            path = getattr(args, flag)
            if path is None:
                raise CliFailure(EXIT_INPUT, f"input {name!r} needs --{flag}")
            inputs[name] = _PREP[kind](graph, name, path)
    except (TinymmError, OSError) as exc:
        raise CliFailure(EXIT_INPUT, str(exc)) from exc
    return inputs


def _synth_inputs(graph: g.ModelGraph, rng: np.random.Generator) -> dict[str, Tensor]:
    """Random tensors shaped like the post-preprocessing inputs."""
    return {
        name: Tensor(rng.normal(0.0, 1.0, size=graph.shapes[name]).astype(np.float32))
        for name in graph.input_names
    }


def _read_assignment(path: str, graph: g.ModelGraph) -> dict[str, int]:
    """The bits of an assignment file, once `graph.check_assignment` accepts
    them; any failure to read or check it is a load failure."""
    try:
        return g.check_assignment(graph, alloc.load_assignment(path).bits)
    except (TinymmError, OSError) as exc:
        raise CliFailure(EXIT_LOAD, f"cannot read assignment: {exc}") from exc


def _quantized_plan(graph, assignment, calibration_inputs):
    stats = g.calibrate(graph, calibration_inputs)
    return g.prepare_quantized_plan(graph, assignment, stats)


# -- subcommands ----------------------------------------------------------------

def cmd_inspect(args) -> int:
    graph = _load_model(args.model, args.weights, args.seed)
    report = g.cost_report(graph)
    print(format_table(report))
    _write_json(args.out, report_to_dict(report))
    return EXIT_OK


def cmd_allocate(args) -> int:
    graph = _load_model(args.model, args.weights, args.seed)
    report = g.cost_report(graph)
    problem = alloc.build_problem(report, g.sensitivity_table(graph), args.size_budget, args.bops_budget)
    try:
        if args.sweep:
            budgets = sorted(int(b) for b in args.sweep.split(","))
            entries = alloc.budget_sweep(problem, budgets)
            doc = {
                "schema": "tinymm-sweep-v1",
                "entries": [
                    {"size_budget_bits": b, **alloc.assignment_to_dict(a)}
                    for b, a in entries
                ],
            }
            for b, a in entries:
                print(f"budget {b}: objective {a.objective:.6g}, size {a.size_bits}, bops {a.bops}")
            _write_json(args.out, doc)
            return EXIT_OK
        result = alloc.solve_exact(problem)
    except InfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    for name, bits in result.bits.items():
        print(f"{name}: {bits}")
    print(f"objective {result.objective:.6g}, size_bits {result.size_bits}, bops {result.bops}")
    _write_json(args.out, alloc.assignment_to_dict(result))
    return EXIT_OK


def _calibration_pairs(graph: g.ModelGraph, cal_dir: str) -> list[dict[str, Tensor]]:
    root = Path(cal_dir)
    if not root.is_dir():
        raise CliFailure(EXIT_CALIBRATION, f"no such calibration directory: {cal_dir}")
    stems: dict[str, dict[str, Path]] = {}
    for path in sorted(root.iterdir()):
        parts = path.name.split(".")
        if len(parts) < 3:
            continue
        stem, input_name = ".".join(parts[:-2]), parts[-2]
        stems.setdefault(stem, {})[input_name] = path
    pairs = []
    try:
        for stem in sorted(stems):
            group = stems[stem]
            if set(group) != set(graph.input_names):
                continue
            pairs.append({name: _PREP[_media_kind(graph, name)](graph, name, str(path))
                          for name, path in group.items()})
    except (TinymmError, CliFailure) as exc:
        raise CliFailure(EXIT_CALIBRATION, f"calibration input failed: {exc}") from exc
    if not pairs:
        raise CliFailure(
            EXIT_CALIBRATION,
            f"{cal_dir} has no complete sample (need <stem>.<input>.wav/.ppm per input)",
        )
    return pairs


def cmd_quantize(args) -> int:
    graph = _load_model(args.model, args.weights, args.seed)
    assignment = _read_assignment(args.assignment, graph)
    pairs = _calibration_pairs(graph, args.calibration_dir)
    try:
        plan = _quantized_plan(graph, assignment, pairs)
    except (EmptyCalibrationSetError, MissingCalibrationError) as exc:
        raise CliFailure(EXIT_CALIBRATION, str(exc)) from exc
    except TinymmError as exc:
        raise CliFailure(EXIT_LOAD, str(exc)) from exc
    records = g.plan_to_records(graph, plan)
    blobio.write_blob(args.out, records)
    payload = blobio.payload_size(records)
    print(f"wrote {args.out}: {len(records)} records, {payload} payload bytes")
    return EXIT_OK


def cmd_infer(args) -> int:
    graph = _load_model(args.model, args.weights, args.seed)
    assignment = _read_assignment(args.quantized, graph) if args.quantized else None
    inputs = _gather_inputs(graph, args)
    try:
        plan = None if assignment is None else _quantized_plan(graph, assignment, [inputs])
        probs = g.infer(graph, inputs, mode="float32" if plan is None else "quantized", plan=plan,
                        parallel_branches=args.parallel)
    except TinymmError as exc:
        raise CliFailure(EXIT_INPUT, str(exc)) from exc
    vec = [float(p) for p in probs.data]
    label = int(np.argmax(probs.data))
    print(f"class {label}")
    print("probs " + " ".join(f"{p:.6f}" for p in vec))
    _write_json(args.out, {"argmax": label, "probs": vec})
    return EXIT_OK


def cmd_bench(args) -> int:
    graph = _load_model(args.model, args.weights, args.seed)
    assignment = _read_assignment(args.quantized, graph) if args.quantized else None
    rng = np.random.default_rng(args.seed)
    inputs = _synth_inputs(graph, rng)
    mode = "quantized" if args.quantized else "float32"
    try:
        plan = None if assignment is None else _quantized_plan(graph, assignment, [inputs])
    except TinymmError as exc:
        raise CliFailure(EXIT_CALIBRATION, str(exc)) from exc
    timings = []
    for _ in range(args.reps):
        t0 = time.perf_counter()
        g.infer(graph, inputs, mode=mode, plan=plan)
        timings.append(time.perf_counter() - t0)
    doc = {
        "model": graph.name,
        "mode": mode,
        "reps": args.reps,
        "batch_size": 1,
        "min_s": min(timings),
        "median_s": statistics.median(timings),
        "mean_s": statistics.fmean(timings),
    }
    print(
        f"{doc['model']} [{mode}] reps={args.reps} batch=1: "
        f"min {doc['min_s']:.4f}s median {doc['median_s']:.4f}s mean {doc['mean_s']:.4f}s"
    )
    _write_json(args.out, doc)
    return EXIT_OK


# -- argument parsing -------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tinymm",
        description="Quantized two-branch multimodal CNN toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("model", help="config path or built-in name (covid, battlefield)")
        p.add_argument("--weights", help="weight blob path")
        p.add_argument("--seed", type=int, default=DEFAULT_SEED)
        p.add_argument("--out", help="machine-readable output path")

    p = sub.add_parser("inspect", help="per-layer parameter/MAC table")
    common(p)
    p.set_defaults(func=cmd_inspect)

    p = sub.add_parser("allocate", help="solve the bit-allocation problem")
    common(p)
    p.add_argument("--size-budget", type=int, help="weight payload budget in bits")
    p.add_argument("--bops-budget", type=int, help="bit-operations budget")
    p.add_argument("--sweep", help="comma-separated list of size budgets")
    p.set_defaults(func=cmd_allocate)

    p = sub.add_parser("quantize", help="calibrate and write a quantized blob")
    common(p)
    p.add_argument("--assignment", required=True, help="bit assignment file")
    p.add_argument("--calibration-dir", required=True)
    p.set_defaults(func=cmd_quantize)

    p = sub.add_parser("infer", help="classify one input pair")
    common(p)
    p.add_argument("--audio", help="first audio input (WAV)")
    p.add_argument("--audio2", help="second audio input (WAV)")
    p.add_argument("--image", help="image input (PPM P6)")
    p.add_argument("--quantized", help="bit assignment file for integer inference")
    p.add_argument("--parallel", action="store_true", help="run branches concurrently")
    p.set_defaults(func=cmd_infer)

    p = sub.add_parser("bench", help="wall-clock latency over synthesized inputs")
    common(p)
    p.add_argument("--reps", type=int, default=10)
    p.add_argument("--quantized", help="bit assignment file for integer inference")
    p.set_defaults(func=cmd_bench)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if getattr(args, "reps", 1) < 1:
        print("--reps must be >= 1", file=sys.stderr)
        return EXIT_INPUT
    try:
        return args.func(args)
    except CliFailure as exc:
        print(str(exc), file=sys.stderr)
        return exc.code
    except InfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE


if __name__ == "__main__":
    sys.exit(main())
