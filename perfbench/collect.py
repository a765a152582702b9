"""Run the benchmark over several seeds and summarise each end-to-end metric
as median, quartiles and spread (quartile distance over the median), next to
a third of the metric's bound from BENCHMARK.json. The exit code is 1 when a
spread reaches a third of its bound. The report-only figures a run prints
under "issue metrics" are summarised too, without a bound.

    python3 perfbench/collect.py --workloads serve_mixed,eval_offline \
        --seeds 1-10 [--out perfbench/results/NAME.json]

Run it from the root of the checkout. Runs are sequential.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n"
                           f"{proc.stdout[-2000:]}\n{proc.stderr[-2000:]}")
    machine = next((json.loads(line.split(":", 1)[1]) for line in lines
                    if line.startswith("machine:")), {})
    # the report-only figures, "issue metrics: name value unit, ..."
    unbounded = {}
    for line in lines:
        if line.startswith("issue metrics:"):
            for part in line.split(":", 1)[1].split(","):
                name, value = part.split()[:2]
                unbounded[name] = float(value)
    return {"seed": seed, "machine": machine, "unbounded": unbounded,
            **json.loads(lines[-1])}


def spread(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0}


def summarise(runs: list[dict], spec: dict) -> dict:
    return {metric["name"]: {
        **spread([r["metrics"][metric["name"]]["value"] for r in runs]),
        "bound": metric["bound"], "unit": metric["unit"]}
        for metric in spec["end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    report = {"run_seconds": spec["run_seconds"], "workloads": {}}
    steady = True
    for workload in args.workloads.split(","):
        runs = []
        for seed in parse_seeds(args.seeds):
            runs.append(run_once(workload, seed, spec["run_seconds"]))
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in runs[-1]["metrics"].items()),
                flush=True)
        summary = summarise(runs, spec)
        unbounded = {name: spread([r["unbounded"][name] for r in runs])
                     for name in runs[0]["unbounded"]}
        report["workloads"][workload] = {"runs": runs, "summary": summary,
                                         "unbounded": unbounded}
        for name, s in summary.items():
            ok = s["spread"] < s["bound"] / 3
            steady &= ok
            print(f"  {workload:15s} {name:18s} median {s['median']:12.4f} "
                  f"{s['unit']:5s} spread {s['spread']:.4f} "
                  f"(bound/3 {s['bound'] / 3:.4f}){'' if ok else '  WIDE'}")
        for name, s in unbounded.items():
            print(f"  {workload:15s} {name:18s} median {s['median']:12.4f} "
                  f"      spread {s['spread']:.4f} (no bound)")
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n",
                                  encoding="utf-8")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
