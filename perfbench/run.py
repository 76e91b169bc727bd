"""tinymm benchmark: one run of one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The benchmark imports tinymm from ./src,
writes its seeded inputs under ./.bench_work (removed on exit) and its
results and spans under ./.bench_out. With --trace 0 the last stdout line
is a JSON object carrying every end_to_end metric of BENCHMARK.json; with
--trace 1 every public tinymm function is wrapped and the line carries
every per_layer metric. Earlier lines record the environment, per-metric
sample counts, the latency medians (printed, not gated) and, when traced,
the per-request breakdown, the tracing overhead and the
separable-vs-traditional report.
"""
from __future__ import annotations

import os

BLAS_THREADS = 1  # pinned before numpy loads; at most nproc
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
MODULES = ("allocate", "audio", "blob", "cli", "costs", "graph", "image",
           "integer_kernels", "kernels", "quantize", "tensor")


def _import_tinymm() -> SimpleNamespace:
    src = ROOT / "src"
    if not (src / "tinymm" / "__init__.py").is_file():
        print(f"no tinymm sources under {src}; run from the root of a checkout", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    return SimpleNamespace(**{m: importlib.import_module(f"tinymm.{m}") for m in MODULES})


def environment(args) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}", "blas_threads": BLAS_THREADS,
        "machine": platform.machine(),
    }


def layer_metric(name: str, report: dict) -> float:
    """`<module>.<function>.<stat>` from the spans, or a `separable.*` ratio."""
    if name.startswith("separable."):
        rows, stat = report["separable"], name.split(".", 1)[1]
        num, den = {"fp_time_ratio": ("sep_fp_ms", "trad_fp_ms"),
                    "int_time_ratio": ("sep_int_ms", "trad_int_ms"),
                    "mac_ratio": ("sep_macs", "trad_macs")}[stat]
        return sum(r[num] for r in rows) / sum(r[den] for r in rows)
    func, stat = name.rsplit(".", 1)
    row = report["funcs"].get(func, {"calls": 0, "busy": 0.0, "self": 0.0, "work": 0.0})
    calls, busy = row["calls"], row["busy"]
    if stat == "calls":
        return calls
    if not calls:
        return 0.0
    return {
        "busy_ms": 1e3 * busy / calls,
        "self_ms": 1e3 * row["self"] / calls,
        "gmac_per_s": row["work"] / busy / 1e9 if busy else 0.0,
        "frames_per_s": row["work"] / busy if busy else 0.0,
        "bytes": row["work"] / calls,
    }[stat]


def print_trace_report(report: dict) -> None:
    for mode, b in report["breakdown"].items():
        print(f"traced {mode} requests (raw files to probabilities): {b['requests']}, "
              f"mean {b['mean_ms']:.3f} ms; self time per request:")
        for fn, ms in b["rows"].items():
            print(f"  {fn:44s} {ms:9.3f} ms  {100 * ms / b['mean_ms']:5.1f}%")
        un = b["unattributed_ms"]
        print(f"  {'(unattributed: outside any tinymm call)':44s} {un:9.3f} ms  {100 * un / b['mean_ms']:5.1f}%")
        total = sum(b["rows"].values()) + un
        print(f"  {'sum of the rows':44s} {total:9.3f} ms = mean request {b['mean_ms']:.3f} ms")
    for mode in report["overhead_ms"]:
        print(f"tracing overhead {mode}: p50 traced {report['traced_p50_ms'][mode]:.3f} ms - "
              f"untraced {report['untraced_p50_ms'][mode]:.3f} ms = {report['overhead_ms'][mode]:+.3f} ms")
    for mode, macs in report["macs_per_request"].items():
        print(f"kernel MACs per {mode} request from spans: {macs:.0f}; cost_report total: {report['model_macs']}")
    print("separable vs traditional (ds layer: dw+pw time / traditional conv time, same geometry)")
    print(f"  {'layer':18s} {'M':>4s} {'N':>4s} {'Dk':>3s} {'fp sep/trad ms':>18s} {'fp ratio':>9s}"
          f" {'int sep/trad ms':>19s} {'int ratio':>9s} {'1/N+1/Dk^2':>11s}")
    for r in report["separable"]:
        print(f"  {r['layer']:18s} {r['M']:4d} {r['N']:4d} {r['Dk']:3d}"
              f" {r['sep_fp_ms']:8.2f}/{r['trad_fp_ms']:<9.2f} {r['sep_fp_ms'] / r['trad_fp_ms']:9.3f}"
              f" {r['sep_int_ms']:8.2f}/{r['trad_int_ms']:<10.2f} {r['sep_int_ms'] / r['trad_int_ms']:9.3f}"
              f" {r['sep_macs'] / r['trad_macs']:11.4f}")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    tm = _import_tinymm()
    import workloads

    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        bench = workloads.Bench(tm, args.workload, args.seed, work)
        bench.run(args.seconds, traced=bool(args.trace))
        if args.trace:
            report = bench.traced_report()
            metrics = {m["name"]: {"value": layer_metric(m["name"], report), "unit": m["unit"]}
                       for m in spec["per_layer"]}
            counts = {f: r["calls"] for f, r in sorted(report["funcs"].items())}
        else:
            values = bench.end_to_end()
            metrics = {m["name"]: {"value": values[m["name"]][0], "unit": m["unit"]}
                       for m in spec["end_to_end"]}
            counts = {name: n for name, (_, n) in values.items()}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    env = environment(args)
    print("environment " + json.dumps(env))
    print("samples " + json.dumps(counts))
    print(f"error_rate {bench.failed / bench.attempted:.6g} ({bench.failed} of {bench.attempted} operations)")
    if not args.trace:  # statistics printed but not gated: the latency medians
        print("also " + json.dumps({k: {"value": v, "unit": "ms"} for k, (v, _) in values.items()
                                    if k not in metrics}))
    if args.trace:
        print_trace_report(report)
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    result = {"correct": bench.failed == 0, "attempted": bench.attempted, "failed": bench.failed,
              "metrics": metrics}
    doc = {**result, "environment": env, "samples": counts}
    if not args.trace:
        doc["all_end_to_end"] = {k: v for k, (v, _) in values.items()}
    if args.trace:
        doc["trace_report"] = report  # per-function totals too, image.* among them
        spans = [[s.sid, s.parent, s.root, s.name, s.start, s.end, s.work] for s in bench.tracer.spans]
        (out / f"{stem}-spans.json").write_text(json.dumps({"spans": spans}))
    (out / f"{stem}.json").write_text(json.dumps(doc, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
