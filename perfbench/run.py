"""storyrank benchmark: one workload per run, end-to-end metrics untraced or
per-layer metrics from a traced run.

    python3 perfbench/run.py --workload serve_mixed --seed 1 --seconds 25 --trace 0

Run it from the root of a storyrank checkout; it imports the library from
./src and reads metric names and units from ./BENCHMARK.json. The last line
of standard output is one JSON object with the keys correct, attempted,
failed and metrics. The exit code is 1 when a correctness check fails and 2
when the library cannot be imported.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 8


def _import_library() -> bool:
    src = ROOT / "src"
    if not (src / "storyrank" / "__init__.py").is_file():
        print(f"perfbench: no storyrank sources under {src}", file=sys.stderr)
        return False
    sys.path.insert(0, str(src))
    import storyrank
    if Path(storyrank.__file__).resolve().parent.parent != src:
        print(f"perfbench: storyrank imported from {storyrank.__file__}, "
              f"not from {src}", file=sys.stderr)
        return False
    return True


def machine_record(seed: int) -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_config": blas.get("openblas configuration", ""),
            "blas_threads_env": {k: os.environ[k] for k in (
                "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS") if k in os.environ},
            "seed": seed}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(workload):
    """Set up SETUP_REPEATS times, half before the run and half after it, so
    that setup_s, the median, samples the host's speed at both ends of the
    run. The run uses the last set-up before it. Peak memory is read before
    the check allocates its own."""
    from tracer import Tracer
    times = []

    def set_up():
        gc.collect()
        started = time.perf_counter()
        state = workload.setup(Tracer())
        times.append(time.perf_counter() - started)
        return state

    for _ in range(SETUP_REPEATS // 2):
        state = None    # drop the previous set-up before the next one
        state = set_up()
    outcome = workload.run(state, Tracer())
    rss = peak_rss_mb()
    outcome.failures += workload.check(state, outcome)
    state = None
    for _ in range(SETUP_REPEATS // 2):
        set_up()
    outcome.metrics = {"setup_s": statistics.median(times),
                       "peak_rss_mb": rss, **outcome.metrics}
    return outcome


def traced(workload):
    """One set-up and run with every layer wrapped; checks run unwrapped."""
    from tracer import Tracer
    tracer = Tracer()
    tracer.install()
    try:
        tracer.phase = "setup"
        state = workload.setup(tracer)
        outcome = workload.run(state, tracer)
    finally:
        tracer.uninstall()
    outcome.failures += workload.check(state, outcome)
    return tracer, outcome


def overhead(spec: dict, plain: dict, traced_metrics: dict) -> dict:
    """Relative cost of tracing per end-to-end metric: positive means the
    traced run read worse."""
    out = {}
    for name, (_, better) in spec.items():
        if name in ("setup_s", "peak_rss_mb"):
            continue
        a, b = plain[name], traced_metrics[name]
        ratio = b / a if better == "lower" else a / b
        out[f"trace.overhead.{name}"] = ratio - 1.0
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not _import_library():
        return 2
    spec_path = ROOT / "BENCHMARK.json"
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    e2e = {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]}
    layers = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}

    from layers import layer_metrics
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    print("machine:", json.dumps(machine_record(args.seed), sort_keys=True))
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        workload = WORKLOADS[args.workload](args.seed, args.seconds, Path(tmp))
        print("traffic:", json.dumps(workload.traffic(), sort_keys=True))
        outcome = measure(workload)
        failures = list(outcome.failures)
        attempted, failed = outcome.attempted, outcome.failed
        metrics, units = outcome.metrics, e2e
        if args.trace:
            tracer, traced_outcome = traced(workload)
            failures += [f"traced: {f}" for f in traced_outcome.failures]
            attempted += traced_outcome.attempted
            failed += traced_outcome.failed
            if traced_outcome.digests != outcome.digests:
                failures.append(f"traced digests {traced_outcome.digests} != "
                                f"untraced {outcome.digests}")
            metrics = layer_metrics(tracer, traced_outcome)
            metrics.update(overhead(e2e, outcome.metrics, traced_outcome.metrics))
            units = layers
            for name, why in tracer.missing.items():
                print(f"not measured: {name}: {why}")
            out_dir = ROOT / ".perfbench-out"
            out_dir.mkdir(exist_ok=True)
            span_file = out_dir / f"spans-{args.workload}-{args.seed}.jsonl"
            tracer.write(span_file)
            print(f"spans: {len(tracer.spans)} written to "
                  f"{span_file.relative_to(ROOT)}")

    unknown = set(metrics) ^ set(units)
    if unknown:
        failures.append(f"metrics out of step with BENCHMARK.json: "
                        f"{sorted(unknown)}")
        metrics = {name: metrics.get(name, 0.0) for name in units}
    for line in outcome.report:
        print(line)
    print("digests:", json.dumps(outcome.digests, sort_keys=True))
    for name, value in metrics.items():
        print(f"  {name:40s} {value:14.6f} {units[name][0]}")
    for failure in failures:
        print(f"CHECK FAILED: {failure}")
    correct = not failures and failed == 0
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name][0]}
                    for name, value in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
