#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload certify --seeds 1-10 --seconds 15

For every metric it prints the median of the runs and the distance between
the first and third quartiles as a share of that median, the figure each
end-to-end bound in BENCHMARK.json has to exceed.  The share of failed
operations is printed per run; it must be the same in all of them.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"]
              for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}

    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        start = time.perf_counter()
        out = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, check=True).stdout
        result = json.loads(out.splitlines()[-1])
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} share={result['failed'] / result['attempted']:.6f} "
              f"wall={time.perf_counter() - start:.1f}s",
              flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])

    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else 0.0
        bound = bounds.get(name)
        note = f" bound {bound} (third {bound / 3:.4f})" if bound is not None else ""
        print(f"{name:32s} median {med:.6g} spread {spread:.4f}{note}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
