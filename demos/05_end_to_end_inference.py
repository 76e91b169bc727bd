"""End to end: raw inputs -> two branches -> probabilities, float and integer.

Builds the covid reference model, synthesizes cough/speech WAV files,
runs float inference, then calibrates, picks a mixed-precision assignment
under a budget, and runs fully integer inference. Finally serializes the
quantized model to a blob and shows the reloaded plan is bit-identical.

Run: python demos/05_end_to_end_inference.py
"""
import tempfile
from pathlib import Path

import numpy as np

from tinymm import (
    AudioClip,
    MfccConfig,
    build_problem,
    build_reference,
    calibrate,
    chunk_audio,
    cost_report,
    infer,
    mfcc,
    prepare_quantized_plan,
    save_wav,
    solve_exact,
)
from tinymm.blob import payload_size, read_blob, write_blob
from tinymm.graph import plan_from_records, plan_to_records, sensitivity_table
from tinymm.tensor import Tensor

scratch = tempfile.TemporaryDirectory()  # removed at the end, or at exit on an error
workdir = Path(scratch.name)
rng = np.random.default_rng(7)
graph = build_reference("covid")

# ---------------------------------------------------------------------------
# Synthesize raw audio for both branches and preprocess exactly as the
# model config prescribes (each input layer carries its MFCC settings)
# ---------------------------------------------------------------------------
def make_input(name, seconds, rate):
    wave = 0.3 * rng.normal(size=int(seconds * rate))
    path = workdir / f"{name}.wav"
    save_wav(path, AudioClip(wave, rate))
    cfg = MfccConfig.from_dict(graph.layer(name).source)
    clip = chunk_audio(AudioClip(wave, rate), seconds)[0]
    feats = mfcc(clip, cfg)
    return feats.reshape(graph.shapes[name])

inputs = {"cough_in": make_input("cough_in", 2.0, 22050),
          "speech_in": make_input("speech_in", 2.0, 16600)}

probs = infer(graph, inputs)
print("float32 probabilities:", probs.data, "-> class", int(np.argmax(probs.data)))

# ---------------------------------------------------------------------------
# Calibrate on a handful of inputs, allocate bits under a size budget,
# then run the whole network in integers
# ---------------------------------------------------------------------------
cal_pairs = [inputs] + [
    {n: Tensor(rng.normal(size=graph.shapes[n]).astype(np.float32) * 3)
     for n in graph.input_names}
    for _ in range(3)
]
stats = calibrate(graph, cal_pairs)

report = cost_report(graph)
budget = int(sum(l.params for l in report.layers) * 6)  # between all-4 and all-8
problem = build_problem(report, sensitivity_table(graph), budget)
assignment = solve_exact(problem)
print("\nbudgeted bit assignment:", assignment.bits)

plan = prepare_quantized_plan(graph, assignment.bits, stats)
qprobs = infer(graph, inputs, mode="quantized", plan=plan)
print("quantized probabilities:", qprobs.data, "-> class", int(np.argmax(qprobs.data)))

# ---------------------------------------------------------------------------
# Ship it: quantized weights, scales and activation params in one blob
# ---------------------------------------------------------------------------
blob_path = workdir / "covid_mixed.tmmw"
records = plan_to_records(graph, plan)
write_blob(blob_path, records)
print(f"\nwrote {blob_path.name}: {payload_size(records)} payload bytes "
      f"(float weights would be {4 * report.total_params})")

reloaded = plan_from_records(graph, read_blob(blob_path))
rprobs = infer(graph, inputs, mode="quantized", plan=reloaded)
assert np.array_equal(qprobs.data, rprobs.data)
print("reloaded blob reproduces the quantized output bit for bit")
scratch.cleanup()
