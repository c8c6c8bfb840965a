"""Run the benchmark on several seeds and summarize each metric's spread.

    python3 perfbench/sweep.py --workloads verify-ref,chain,scan-custom --seeds 1-10
    python3 perfbench/sweep.py --workloads chain --seeds 1,2 --trace 1 --out trace.json

Each run is one ``perfbench/run.py`` process, started after the previous one
ended.  For every workload and metric this prints the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread (Q3 - Q1) / median,
next to the metric's bound from ``BENCHMARK.json``.  With ``--out`` the
values and summaries are saved as JSON, which is how ``BASELINE.json`` was
made.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 180


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        low, high = (int(p) for p in text.split("-"))
        return list(range(low, high + 1))
    return [int(p) for p in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} exited {proc.returncode}: {proc.stderr[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median, median, median)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else 0.0}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", required=True, help="comma-separated workload names")
    parser.add_argument("--seeds", default="1-10", help="'a-b' or a comma list")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None, help="write values and summaries as JSON")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    saved = {}
    for workload in args.workloads.split(","):
        runs = [run_once(workload, seed, seconds, args.trace) for seed in parse_seeds(args.seeds)]
        correct = all(r["correct"] for r in runs)
        print(f"== {workload}: {len(runs)} runs, all correct: {correct}, "
              f"failed {sum(r['failed'] for r in runs)}/{sum(r['attempted'] for r in runs)}")
        metrics = {}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            stats = summarize(values)
            metrics[name] = {"unit": runs[0]["metrics"][name]["unit"], "values": values, **stats}
            bound = bounds.get(name)
            verdict = "" if bound is None else f"bound {bound:g}, spread/bound {stats['spread'] / bound:.2f}"
            print(f"  {name:45s} median {stats['median']:12.6g}  Q1 {stats['q1']:12.6g}  "
                  f"Q3 {stats['q3']:12.6g}  spread {stats['spread']:.4f}  {verdict}")
        saved[workload] = {"correct": correct, "seeds": parse_seeds(args.seeds), "metrics": metrics}
    if args.out:
        args.out.write_text(json.dumps(saved, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
