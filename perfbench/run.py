#!/usr/bin/env python3
"""rankread benchmark: one workload, one seed, one process.

    python3 perfbench/run.py --workload synth_short --seed 1 --seconds 25 --trace 0

Run from the repository root. `--trace 0` prints the end-to-end metrics of
BENCHMARK.json; `--trace 1` runs the workload untraced and then traced and
prints the per-layer metrics, including the tracing overhead. Run metadata
(machine, quality, determinism fingerprint) is printed on the line before the
result and written with the spans under perfbench/out/. The last line of
standard output is the result object.
"""

import os

# Pin BLAS and OpenMP to one thread before numpy is imported: the pipeline
# is one caller, and a second BLAS thread would fight it for the two cores.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def machine_meta(load_at_start):
    import numpy as np
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # older numpy prints instead of returning
        pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": {k: blas.get(k) for k in ("name", "version")},
            "loadavg_at_start": load_at_start, "blas_threads": os.environ["OPENBLAS_NUM_THREADS"]}


def one_pass(w, seed, seconds, repeats=1, tracer=None):
    """Set up `repeats` times, then the timed rounds; returns (run, wall seconds)."""
    import workloads
    run = workloads.Run(w, seed, seconds, OUT_DIR, tracer)
    setup_s = []
    t0 = time.perf_counter()
    for i in range(repeats):
        run.pin(i)
        task, seconds = run.setup()
        setup_s.append(seconds)
    run.timed(task)
    wall = time.perf_counter() - t0
    run.metrics["setup_s"] = statistics.median(ref for ref, _ in setup_s)
    run.meta["wall_metrics"]["setup_s"] = statistics.median(w for _, w in setup_s)
    run.meta["setup_samples_s"] = setup_s
    run.meta["inputs_sha256"] = workloads.inputs_digest(task["docs"], task["train"], task["test"])
    if tracer is None:
        run.bm25_sample(task)
    return run, wall


def run_untraced(w, seed, seconds):
    import workloads
    run, _ = one_pass(w, seed, seconds, repeats=workloads.SETUP_REPEATS)
    run.metrics["peak_rss_mb"] = workloads.peak_rss_mb()
    return run


def run_traced(w, seed, seconds, spans_path):
    import tracing
    plain, plain_wall = one_pass(w, seed, seconds)
    tracer = tracing.Tracer()
    tracer.install(tracing.targets())
    try:
        traced, wall = one_pass(w, seed, seconds, tracer=tracer)
    finally:
        tracer.uninstall()
    traced.attempted += plain.attempted
    traced.failed += plain.failed
    traced.failures += plain.failures
    # tracing must not change the arithmetic
    traced.check(traced.meta["fingerprint"] == plain.meta["fingerprint"],
                 "traced fingerprint differs from untraced")
    layer = tracing.layer_metrics(tracer, wall)
    layer["trace.overhead_wall_pct"] = 100.0 * (wall - plain_wall) / plain_wall
    for name, value in plain.metrics.items():
        layer[f"trace.overhead.{name}"] = traced.metrics[name] - value
    traced.metrics = layer
    traced.meta["untraced_metrics"] = plain.metrics
    traced.meta["pass_wall_s"] = {"untraced": plain_wall, "traced": wall}
    tracer.write_spans(spans_path)
    traced.meta["spans_file"] = os.path.relpath(spans_path, ROOT)
    return traced


def main(argv=None):
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    load_at_start = os.getloadavg()
    if not os.path.isdir(os.path.join(ROOT, "src", "rankread")):
        print(f"rankread sources not found under {ROOT}/src", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    os.makedirs(OUT_DIR, exist_ok=True)
    import workloads

    w = workloads.WORKLOADS[args.workload]
    stem = os.path.join(OUT_DIR, f"{w.name}-seed{args.seed}-trace{args.trace}")
    started = time.perf_counter()
    if args.trace:
        run = run_traced(w, args.seed, args.seconds, stem + ".spans.jsonl")
        wanted = spec["per_layer"]
    else:
        run = run_untraced(w, args.seed, args.seconds)
        wanted = spec["end_to_end"]

    metrics = {}
    for m in wanted:
        value = run.metrics.get(m["name"])
        ok = value is not None and math.isfinite(value)
        run.check(ok, f"metric {m['name']} missing or not finite")
        metrics[m["name"]] = {"value": value if ok else None, "unit": m["unit"]}
    extra = sorted(set(run.metrics) - {m["name"] for m in wanted})
    run.check(not extra, f"metrics not in BENCHMARK.json: {extra}")

    meta = {"workload": w.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
            "machine": machine_meta(load_at_start), "elapsed_s": time.perf_counter() - started,
            "failures": run.failures, **run.meta}
    result = {"correct": run.failed == 0, "attempted": run.attempted, "failed": run.failed,
              "metrics": metrics}
    with open(stem + ".json", "w") as f:
        json.dump({"meta": meta, "result": result}, f, indent=1)
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
