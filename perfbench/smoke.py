"""Smoke test of the benchmark itself: a short run of every workload.

    python3 perfbench/smoke.py

Runs ``run.py --workload all`` on a non-default seed with and without
tracing, and exits non-zero unless every workload reports every metric
named in BENCHMARK.json and no request failed.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SEED = 7
SECONDS = 2


def main():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    problems = []
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", "all",
               "--seed", str(SEED), "--seconds", str(SECONDS), "--trace", str(trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900, check=False)
        if proc.returncode != 0:
            problems.append(f"trace {trace}: exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if result["failed"] or not result["correct"]:
            problems.append(f"trace {trace}: {result['failed']} of {result['attempted']} requests failed")
        for workload in bench["workloads"]:
            for m in bench[key]:
                got = result["metrics"].get(f"{workload['name']}/{m['name']}")
                if got is None or got["unit"] != m["unit"]:
                    problems.append(f"trace {trace}: {workload['name']} lacks {m['name']} in {m['unit']}")
    for p in problems:
        print(f"FAIL {p}")
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problems")
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
