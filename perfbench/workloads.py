"""The workloads: set-up, closed-loop requests, offline compression.

Every operation's output is checked; a failed or incorrect operation is
counted and its latency is not.

* A request turns raw files into probabilities: load_wav -> chunk_audio ->
  mfcc (and load_ppm -> image_to_input) -> infer, in float32 or integer
  mode. Every output must be a finite probability vector of the model's
  width that sums to 1. Float outputs must match the float64 reference
  within FLOAT_ATOL. Every REPEAT_EVERY-th integer output is recomputed and
  must match bit for bit; integer argmaxes are compared with the
  reference's (int_top1_agreement).
* A set-up goes from model files to ready-to-serve: load_model, front-end
  and calibrate over the calibration directory, allocation (mixed integer
  mode only) and prepare_quantized_plan.
* A compress cycle runs the toolkit in-process through tinymm.cli.main
  (allocate --sweep, allocate, quantize --calibration-dir), reads the blob
  back with read_blob + plan_from_records and checks its assignment. It
  then scores a fresh held-out directory in integer mode from the rebuilt
  plan and in float mode. The integer outputs that are recomputed are
  recomputed through a plan built in memory from the same assignment and
  calibration, so the rebuilt plan must score exactly as that one does.

The stream workloads also run `side_cycles` compress cycles spread over the
measured phase (outside its time), so every workload reports every metric.
Set-ups after the first SETUPS_BEFORE are spread over the measured phase the
same way, so their median is not taken within one stretch of host speed.

On a host whose speed switches between two levels about 1.5x apart for
seconds to minutes at a time, a run's median or mean lands in either level,
while its 90th percentile stays in the slower one. Latency and compress_s
are therefore gated at p90 (the latency medians are printed beside them),
and the two rates at the 10th percentile of short windows, which like p90
latency catch the slow stretches even of a mostly fast run: requests_per_s
over windows of REQ_WINDOW consecutive measured requests (stream requests,
or held-out scorings in compress-offline, whose compress time is
compress_s), completed requests over the window's wall time;
offline_samples_per_s over held-out pairs, one pair scored in both modes
over its wall time.
"""
from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import media
from reference import Reference
from tracing import Tracer, by_function, request_breakdown

FLOAT_ATOL = 2e-5     # max |p - p_ref| for float32 outputs; 2.5e-7 observed
SUM_TOL = 1e-5        # |sum(p) - 1| for float32 probabilities
SETUPS = 9            # set-ups per run; setup_s is their median
SETUPS_BEFORE = 2     # of which before the measured phase; the rest spread over it
RATE_PCT = 10         # rates are gated at this percentile of their windows
REQ_WINDOW = 4        # requests per requests_per_s window; divides BATCH and 2 * held-out pairs
BATCH = 16            # request files written (untimed) per closed-loop batch
WARMUP = 4            # untimed requests before the measured phase
REPEAT_EVERY = 4      # every 4th integer output is rerun untimed and must match
SWEEP = (4.5, 5, 6, 7, 8)  # allocate --sweep budgets, in bits per weight
MIXED_BUDGET = 6      # bits per weight for the mixed 4/8 assignment
SEP_REPS = 3          # timing repeats per kernel in the separable report
MODES = ("float32", "quantized")


@dataclass(frozen=True)
class Workload:
    model: str
    mixed: bool          # integer mode: allocator-chosen 4/8 mix, else all 8-bit
    calib_pairs: int
    heldout_pairs: int   # per compress cycle
    stream: bool         # closed-loop requests fill the measured phase, else compress cycles
    side_cycles: int = 0  # compress cycles spread over a stream phase, for compress_s


WORKLOADS = {
    # battlefield requests are short, so its held-out directories hold more
    # pairs for the same steadiness of offline_samples_per_s
    "covid-stream": Workload("covid", False, 8, 4, True, 12),
    "battlefield-stream": Workload("battlefield", True, 8, 8, True, 12),
    "compress-offline": Workload("covid", True, 16, 12, False),
}


class Client:
    """Raw files to probabilities through tinymm's public front-end and infer."""

    def __init__(self, tm, graph):
        self.tm, self.graph = tm, graph
        self.inputs = []
        for name in graph.input_names:
            src = graph.layer(name).source
            cfg = tm.audio.MfccConfig.from_dict(src) if src["type"] == "mfcc" else None
            self.inputs.append((name, cfg, float(src.get("chunk_seconds", 0)), graph.shapes[name]))

    def features(self, files: dict) -> dict:
        tm, feats = self.tm, {}
        for name, cfg, seconds, shape in self.inputs:
            if cfg is None:
                feats[name] = tm.image.image_to_input(tm.image.load_ppm(files[name]), shape[0], shape[1])
                continue
            clip = tm.audio.load_wav(files[name])
            if clip.sample_rate != cfg.sample_rate:
                raise ValueError(f"{files[name]}: {clip.sample_rate} Hz, model wants {cfg.sample_rate}")
            feats[name] = tm.audio.mfcc(tm.audio.chunk_audio(clip, seconds)[0], cfg).reshape(shape)
        return feats

    def probs(self, files: dict, mode: str, plan) -> np.ndarray:
        feats = self.features(files)
        tm = self.tm
        if mode == "float32":
            return tm.graph.infer(self.graph, feats).data
        return tm.graph.infer(self.graph, feats, mode="quantized", plan=plan).data


def _pct(values: list[float], q: float) -> float:
    return float(np.percentile(values, q)) if values else float("nan")


def _window_rates(ends: list[float], done: list[bool], width: int) -> list[float]:
    """Completed operations per second in consecutive windows of `width`
    operations; ends[0] is when the first began, ends[i + 1] when the i-th ended."""
    return [sum(done[i : i + width]) / (ends[i + width] - ends[i])
            for i in range(0, len(done) - width + 1, width)]


class Bench:
    def __init__(self, tm, workload: str, seed: int, work: Path):
        self.tm, self.seed = tm, seed
        self.wl = WORKLOADS[workload]
        self.attempted = self.failed = 0
        self.lat = {m: [] for m in MODES}
        self.untraced_lat = {m: [] for m in MODES}
        self.setup_s: list[float] = []
        self.compress_s: list[float] = []
        self.agree = [0, 0]        # integer outputs whose argmax matches the reference, all
        self.req_rates: list[float] = []      # per window of measured requests, requests/s
        self.offline_rates: list[float] = []  # per held-out pair, pairs/s
        self.int_seen = 0
        self.tracer: Tracer | None = None

        # inputs, untimed: model files, calibration and held-out directories
        config = media.load_config(self.wl.model)
        weights = media.model_weights(config)
        self.ref = Reference(config, weights)
        self.maker = media.MediaMaker(config)
        self.work = work
        self.config_path, self.blob_path = work / "model.json", work / "model.tmmw"
        self.config_path.write_text(json.dumps(config))
        media.write_tmmw(self.blob_path, weights)
        rng = np.random.default_rng([seed, 0])
        self.heldout_rng = np.random.default_rng([seed, 2])
        self.cal_dir, self.heldout_dir, self.req_dir = work / "calibration", work / "heldout", work / "requests"
        for d in (self.cal_dir, self.heldout_dir, self.req_dir):
            d.mkdir()
        for i in range(self.wl.calib_pairs):
            self.maker.pair(rng, self.cal_dir, f"c{i:03d}")

        graph = tm.graph.load_model(self.config_path, self.blob_path)
        self.params = tm.graph.cost_report(graph).total_params
        self.macs = _mac_table(tm, graph)
        self.total_macs = sum(self.macs.values())

    # -- operations ---------------------------------------------------------

    def _fail(self, what: str, detail: str) -> None:
        self.failed += 1
        if self.failed <= 3:
            print(f"FAILED {what}: {detail}", file=sys.stderr)

    @property
    def _traced(self) -> bool:
        return self.tracer is not None and self.tracer.active

    def _root(self, name: str):
        return self.tracer.span(name) if self._traced else contextlib.nullcontext()

    def _unchecked(self):
        return self.tracer.pause() if self._traced else contextlib.nullcontext()

    def _sink(self) -> dict:
        """Where measured latencies go: a trace run keeps untraced ones apart."""
        return self.untraced_lat if self.tracer is not None and not self.tracer.active else self.lat

    def _alternate(self, k: int) -> None:
        """In a trace run, trace every other batch or cycle of the measured phase."""
        if self.tracer is not None:
            self.tracer.install() if k % 2 else self.tracer.remove()

    def setup(self) -> None:
        tm = self.tm
        self.attempted += 1
        with self._root("setup"):
            t0 = time.perf_counter()
            graph = tm.graph.load_model(self.config_path, self.blob_path)
            client = Client(tm, graph)
            pairs = []
            for stem in sorted({p.name.split(".")[0] for p in self.cal_dir.iterdir()}):
                files = {n: next(self.cal_dir.glob(f"{stem}.{n}.*")) for n in graph.input_names}
                pairs.append(client.features(files))
            stats = tm.graph.calibrate(graph, pairs)
            bits = self._allocate(graph) if self.wl.mixed else {l.name: 8 for l in graph.weighted_layers}
            plan = tm.graph.prepare_quantized_plan(graph, bits, stats)
            self.setup_s.append(time.perf_counter() - t0)
        if self.wl.mixed and set(bits.values()) != {4, 8}:
            self._fail("setup", f"allocation is not a 4/8 mix: {bits}")
        self.graph, self.client, self.stats, self.plan = graph, client, stats, plan

    def _allocate(self, graph) -> dict[str, int]:
        """Library allocation, scoring each layer's weights as `tinymm allocate` does."""
        tm = self.tm
        weights = {
            l.name: tm.tensor.Tensor(np.concatenate(
                [t.data.reshape(-1) for k, t in graph.weights[l.name].items() if k != "b"]))
            for l in graph.weighted_layers
        }
        table = tm.quantize.build_sensitivity_table(weights, (4, 8), graph.sensitivity_overrides)
        problem = tm.allocate.build_problem(tm.graph.cost_report(graph), table, MIXED_BUDGET * self.params)
        return dict(tm.allocate.solve_exact(problem).bits)

    def _cli(self, *args) -> None:
        argv = [args[0], str(self.config_path), "--weights", str(self.blob_path), *map(str, args[1:])]
        with contextlib.redirect_stdout(io.StringIO()):
            code = self.tm.cli.main(argv)
        if code != 0:
            raise RuntimeError(f"tinymm {' '.join(argv)} exited {code}")

    def compress_cycle(self, measured: bool) -> float:
        """One compress cycle over a fresh held-out directory; returns its
        wall time, input synthesis excluded. Held-out latencies count if measured."""
        tm, w = self.tm, self.work
        for f in self.heldout_dir.iterdir():
            f.unlink()
        heldout = [self.maker.pair(self.heldout_rng, self.heldout_dir, f"h{i:03d}")
                   for i in range(self.wl.heldout_pairs)]
        self.attempted += 1
        gc.collect()
        t0 = time.perf_counter()
        try:
            with self._root("compress"):
                self._cli("allocate", "--sweep", ",".join(str(int(b * self.params)) for b in SWEEP),
                          "--out", w / "sweep.json")
                self._cli("allocate", "--size-budget", MIXED_BUDGET * self.params, "--out", w / "assignment.json")
                self._cli("quantize", "--assignment", w / "assignment.json",
                          "--calibration-dir", self.cal_dir, "--out", w / "quantized.tmmw")
                plan = tm.graph.plan_from_records(self.graph, tm.blob.read_blob(w / "quantized.tmmw"))
            bits = json.loads((w / "assignment.json").read_text())["bits"]
            if plan.assignment != bits or set(bits.values()) != {4, 8}:
                raise ValueError(f"blob assignment {plan.assignment} != allocated {bits}")
            self.compress_s.append(time.perf_counter() - t0)
            sweep = [e["objective"] for e in json.loads((w / "sweep.json").read_text())["entries"]]
            if len(sweep) != len(SWEEP) or any(b > a for a, b in zip(sweep, sweep[1:])):
                raise ValueError(f"sweep objectives {sweep} are not non-increasing")
        except Exception as exc:  # a failed cycle is counted, the run goes on
            self._fail("compress", "".join(traceback.format_exception_only(exc)).strip())
            return time.perf_counter() - t0
        with self._unchecked():
            mem_plan = tm.graph.prepare_quantized_plan(self.graph, bits, self.stats)
        outs, ends = [], [time.perf_counter()]
        for files, raw in heldout:  # modes interleave so both see the same machine load
            for mode in ("quantized", "float32"):
                p, dt = self._request(files, mode, plan, "heldout")
                outs.append((files, raw, mode, p, dt))
                ends.append(time.perf_counter())
        elapsed = ends[-1] - t0
        done, refs = [], {}
        for files, raw, mode, p, dt in outs:
            done.append(False)
            if p is None:
                continue
            ref = refs.get(id(raw))  # one reference forward per held-out pair
            if ref is None:
                ref = refs[id(raw)] = self.ref.probs(raw)
            ok = self._check(p, ref, mode) and self._repeats(p, files, mode, mem_plan)
            if not ok:
                self._fail(f"held-out {mode}", f"output {p} does not check")
                continue
            done[-1] = True
            if measured:
                self._measured(mode, dt, p, ref)
        self.offline_rates += _window_rates(ends[::2], [a and b for a, b in zip(done[::2], done[1::2])], 1)
        if measured:
            self.req_rates += _window_rates(ends, done, REQ_WINDOW)
        return elapsed

    def _request(self, files: dict, mode: str, plan, kind: str = "request"):
        self.attempted += 1
        try:
            with self._root(f"{kind}.{mode}"):
                t0 = time.perf_counter()
                p = self.client.probs(files, mode, plan)
                return p, time.perf_counter() - t0
        except Exception as exc:  # a failed request is counted, the loop goes on
            self._fail(f"request {mode}", "".join(traceback.format_exception_only(exc)).strip())
            return None, None

    def _check(self, p: np.ndarray, ref: np.ndarray, mode: str) -> bool:
        ok = (p.shape == ref.shape and bool(np.all(np.isfinite(p))) and p.min() >= 0
              and abs(float(p.sum(dtype=np.float64)) - 1.0) <= SUM_TOL)
        if ok and mode == "float32":
            ok = float(np.abs(p - ref).max()) <= FLOAT_ATOL
        return ok

    def _repeats(self, p: np.ndarray, files: dict, mode: str, plan) -> bool:
        """Every REPEAT_EVERY-th integer output is recomputed, untimed, through
        `plan` and must match bit for bit."""
        if mode != "quantized":
            return True
        self.int_seen += 1
        if self.int_seen % REPEAT_EVERY:
            return True
        with self._unchecked():
            return bool(np.array_equal(p, self.client.probs(files, mode, plan)))

    def _measured(self, mode: str, dt: float, p: np.ndarray, ref: np.ndarray) -> None:
        self._sink()[mode].append(dt)
        if mode == "quantized":
            self.agree[0] += int(np.argmax(p) == np.argmax(ref))
            self.agree[1] += 1

    def _batch(self, rng, size: int, measured: bool) -> float:
        """Closed loop over `size` fresh pairs; returns its seconds."""
        batch = [self.maker.pair(rng, self.req_dir, f"r{k:03d}") for k in range(size)]
        modes = [m for _ in range(size // 2) for m in rng.permutation(MODES)]
        outs = []
        gc.collect()  # the checks' garbage is not the program's to collect
        ends = [time.perf_counter()]
        for (files, _), mode in zip(batch, modes):
            outs.append(self._request(files, mode, self.plan))
            ends.append(time.perf_counter())
        done = []
        for (files, raw), mode, (p, dt) in zip(batch, modes, outs):
            done.append(False)
            if p is None:
                continue
            ref = self.ref.probs(raw)
            ok = self._check(p, ref, mode) and self._repeats(p, files, mode, self.plan)
            if not ok:
                self._fail(f"request {mode}", f"output {p} does not check")
                continue
            done[-1] = True
            if measured:
                self._measured(mode, dt, p, ref)
        if measured:
            self.req_rates += _window_rates(ends, done, REQ_WINDOW)
        for f in self.req_dir.iterdir():
            f.unlink()
        return ends[-1] - ends[0]

    def measured_phase(self, seconds: float) -> None:
        """Closed-loop batches (stream) or compress cycles until `seconds` of
        measured time have passed. The remaining set-ups and the side cycles
        run in between, outside the measured time, as it progresses."""
        rng = np.random.default_rng([self.seed, 1])
        if self.wl.stream:
            self._batch(rng, WARMUP, measured=False)
        k, spent, cycles = 0, 0.0, 0
        while spent < seconds:
            self._alternate(k)
            if self.wl.stream:
                spent += self._batch(rng, BATCH, measured=True)
            else:
                spent += self.compress_cycle(measured=True)
            progress = min(spent / seconds, 1.0)
            while len(self.setup_s) < SETUPS_BEFORE + (SETUPS - SETUPS_BEFORE) * progress:
                self.setup()
            while cycles < self.wl.side_cycles * progress:
                self.compress_cycle(measured=False)
                cycles += 1
            k += 1

    # -- runs ---------------------------------------------------------------

    def run(self, seconds: float, traced: bool = False) -> None:
        """Set-ups, a warm-up compress cycle, then the measured phase. A traced
        run traces all of it except every other measured batch or cycle,
        whose latencies give the untraced p50 for the tracing overhead."""
        if traced:
            self.tracer = Tracer(_counters(self.macs))
            self.tracer.install()
        try:
            for _ in range(SETUPS_BEFORE):
                self.setup()
            self.compress_cycle(measured=False)  # warm-up, not recorded
            self.compress_s.clear()
            self.offline_rates.clear()
            self.measured_phase(seconds)
        finally:
            if traced:
                self.tracer.remove()

    def end_to_end(self) -> dict:
        """Every end-to-end statistic as (value, sample count); BENCHMARK.json
        names the ones the last output line carries."""
        f, q = self.lat["float32"], self.lat["quantized"]
        return {
            "setup_s": (statistics.median(self.setup_s), len(self.setup_s)),
            "float_latency_ms_p50": (1e3 * _pct(f, 50), len(f)),
            "float_latency_ms_p90": (1e3 * _pct(f, 90), len(f)),
            "int_latency_ms_p50": (1e3 * _pct(q, 50), len(q)),
            "int_latency_ms_p90": (1e3 * _pct(q, 90), len(q)),
            "requests_per_s": (_pct(self.req_rates, RATE_PCT), len(self.req_rates)),
            "compress_s": (_pct(self.compress_s, 90), len(self.compress_s)),
            "offline_samples_per_s": (_pct(self.offline_rates, RATE_PCT), len(self.offline_rates)),
            "int_top1_agreement": (self.agree[0] / max(self.agree[1], 1), self.agree[1]),
            "success_rate": (1.0 - self.failed / self.attempted, self.attempted),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1),
        }

    def traced_report(self) -> dict:
        spans = self.tracer.spans
        funcs = by_function(spans)
        kind = "request" if self.wl.stream else "heldout"  # the requests whose latency is measured
        breakdown = {m: request_breakdown(spans, f"{kind}.{m}") for m in MODES}
        overhead = {m: 1e3 * (_pct(self.lat[m], 50) - _pct(self.untraced_lat[m], 50)) for m in MODES}
        macs = {}
        for mode, prefix in (("float32", "kernels."), ("quantized", "integer_kernels.")):
            roots = {s.sid for s in spans if s.parent is None and s.name == f"{kind}.{mode}"}
            work = sum(s.work for s in spans if s.root in roots and s.name.startswith(prefix))
            macs[mode] = work / max(len(roots), 1)
        return {
            "funcs": funcs,
            "breakdown": breakdown,
            "overhead_ms": overhead,
            "untraced_p50_ms": {m: 1e3 * _pct(self.untraced_lat[m], 50) for m in MODES},
            "traced_p50_ms": {m: 1e3 * _pct(self.lat[m], 50) for m in MODES},
            "macs_per_request": macs,
            "model_macs": self.total_macs,
            "separable": separable_report(self.tm, self.graph),
        }


def _mac_table(tm, graph) -> dict[tuple, int]:
    """(kernel kind, input shape, weight shape) -> MACs, from cost_report.

    A separable layer's MACs are split as the cost model counts them: the
    depthwise stage is M * H' * W' * Dk^2, the pointwise stage the rest.
    """
    report = tm.graph.cost_report(graph)
    table = {}
    for layer in graph.weighted_layers:
        macs = report.layer(layer.name).macs
        src = tuple(graph.shapes[layer.inputs[0]])
        w = graph.weights[layer.name]
        if layer.kind == "conv2d":
            table[("conv2d", src, w["w"].shape)] = macs
        elif layer.kind == "ds_conv2d":
            out, c = graph.shapes[layer.name], layer.conv
            dw = c.in_channels * out[0] * out[1] * c.kernel_size ** 2
            table[("depthwise", src, w["dw"].shape)] = dw
            table[("pointwise", (out[0], out[1], c.in_channels), w["pw"].shape)] = macs - dw
        else:
            table[("dense", src, w["w"].shape)] = macs
    return table


def _counters(macs: dict) -> dict:
    """Work counters by span name: MACs for kernels, frames for mfcc, file bytes for blobs."""

    def kernel(kind):
        return lambda args, out: macs.get((kind, tuple(args[0].shape), tuple(args[1].shape)), 0)

    out = {}
    for kind, fn in (("conv2d", "conv2d"), ("depthwise", "depthwise_conv2d"),
                     ("pointwise", "pointwise_conv2d"), ("dense", "dense")):
        out[f"kernels.{fn}_fp"] = kernel(kind)
        out[f"integer_kernels.{fn}_int"] = kernel(kind)
    out["audio.mfcc"] = lambda args, res: res.shape[0]
    out["blob.write_blob"] = out["blob.read_blob"] = lambda args, res: os.path.getsize(args[0])
    return out


def separable_report(tm, graph) -> list[dict]:
    """Per ds layer: measured depthwise + pointwise time over the time of the
    traditional convolution of the same geometry, float and 8-bit integer."""
    K, ik, T = tm.kernels, tm.integer_kernels, tm.tensor
    rng = np.random.default_rng(0)
    p8 = T.QuantParams(0.05, 0, 8)
    rows = []

    def median_time(fn):
        times = []
        for _ in range(SEP_REPS):
            t0 = time.perf_counter()
            fn()
            times.append(time.perf_counter() - t0)
        return statistics.median(times)

    for layer in graph.weighted_layers:
        if layer.kind != "ds_conv2d":
            continue
        c = layer.conv
        m, n, k = c.in_channels, c.out_channels, c.kernel_size
        trad = K.ConvSpec(m, n, k, c.stride, c.padding, "traditional")
        shape = graph.shapes[layer.inputs[0]]
        x = T.Tensor(rng.normal(size=shape))
        dw, pw = T.Tensor(rng.normal(size=(k, k, m))), T.Tensor(rng.normal(size=(1, 1, m, n)))
        w, b = T.Tensor(rng.normal(size=(k, k, m, n))), T.Tensor(np.zeros(n))
        qx = T.QuantTensor(rng.integers(-128, 128, size=shape), p8)
        qdw, qpw = (T.QuantTensor(rng.integers(-127, 128, size=s), T.QuantParams(0.01, 0, 8))
                    for s in ((k, k, m), (1, 1, m, n)))
        qw = T.QuantTensor(rng.integers(-127, 128, size=(k, k, m, n)), T.QuantParams(0.01, 0, 8))
        qb = np.zeros(n, dtype=np.int64)
        sep_fp = median_time(lambda: K.pointwise_conv2d_fp(K.depthwise_conv2d_fp(x, dw, c), pw, b))
        trad_fp = median_time(lambda: K.conv2d_fp(x, w, b, trad))
        sep_int = median_time(
            lambda: ik.pointwise_conv2d_int(ik.depthwise_conv2d_int(qx, qdw, p8, c), qpw, qb, p8))
        trad_int = median_time(lambda: ik.conv2d_int(qx, qw, qb, p8, trad))
        rows.append({
            "layer": layer.name, "M": m, "N": n, "Dk": k,
            "sep_fp_ms": 1e3 * sep_fp, "trad_fp_ms": 1e3 * trad_fp,
            "sep_int_ms": 1e3 * sep_int, "trad_int_ms": 1e3 * trad_int,
            "sep_macs": tm.costs.ds_conv_cost(m, k, n, *graph.shapes[layer.name][:2]).macs,
            "trad_macs": tm.costs.traditional_conv_cost(m, k, n, *graph.shapes[layer.name][:2]).macs,
        })
    return rows
