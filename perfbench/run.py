"""linkdiag benchmark: one closed-loop client, one workload per run.

Usage, from the repository root::

    python3 perfbench/run.py --workload analyze_braids --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 7 --seconds 4 --trace 1

A run generates the workload's inputs from ``--seed``, imports linkdiag
from ``src/`` and warms up (``setup_s`` is the median of several such
set-ups), then sends requests back to back for ``--seconds`` seconds from
this single process, without threads.  A CLI request is one in-process
``linkdiag.cli.run([...])`` call with stdout captured; an ``index_graphs``
request is one ``ind_all`` call.  Every output is checked after the timed
loop.  With ``--trace 1`` the time is split between an untraced and a
traced pass over the same requests, and the per-layer numbers come from
the traced pass.  The last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time
import warnings

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, "_work")
GOLDEN = os.path.join(HERE, "golden_sha256.json")
DEFAULT_SEED = 1
GOLDEN_COUNT = 64
SETUP_REPEATS = 9
# The usual latency ladder.  Every workload runs 400-700 requests in 20 s,
# so the tail is p90 at this size; past 1000 requests it becomes p99.
PERCENTILES = (50, 90, 99, 99.9)


def calibrate():
    """Seconds for a fixed pure-Python loop; tracks host speed, not linkdiag."""
    t0 = time.perf_counter()
    x = 0
    for i in range(1_000_000):
        x = (x * 31 + i) % 1_000_003
    return time.perf_counter() - t0


def setup(workload, seed):
    """Generate and write the inputs, import linkdiag, warm up.

    Returns (requests, seconds).  Input files are rewritten in place: on
    this kind of disk creating a file costs several times more than
    rewriting one, and varies more.
    """
    import workloads as w

    workdir = os.path.join(WORK, workload)
    warm_dir = os.path.join(workdir, "warm-up")
    os.makedirs(warm_dir, exist_ok=True)
    t0 = time.perf_counter()
    w.load_linkdiag()
    gen, run, _check = w.WORKLOADS[workload]
    reqs = gen(random.Random(f"{workload}/{seed}"), workdir)
    # Fixed warm-up inputs, the same for every seed: first calls pay for
    # lazy imports and regex compilation.
    for req in gen(random.Random(f"{workload}/warm-up"), warm_dir, 2):
        run(req)
    return reqs, time.perf_counter() - t0


def timed_loop(reqs, run, seconds, tracer=None):
    """Closed loop over reqs from index 0 until `seconds` have passed."""
    results = []
    clock = time.perf_counter_ns
    unverified = 0
    deadline = clock() + int(seconds * 1e9)
    start = clock()
    i = 0
    while True:
        req = reqs[i % len(reqs)]
        if tracer is not None:
            tracer.request = i
        # Recording warnings keeps stderr clean and counts vogel's
        # "not verified" results.
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            t0 = clock()
            outcome = _call(run, req)
            t1 = clock()
        unverified += sum("not verified" in str(c.message) for c in caught)
        results.append((t1 - t0, outcome))
        i += 1
        if t1 >= deadline:
            break
    return results, (clock() - start) / 1e9, unverified


def _call(run, req):
    try:
        return run(req)
    except Exception as exc:  # a raising request is a failed request
        return ("raised", f"{type(exc).__name__}: {exc}")


def gate(workload, seed, reqs, results):
    """Check every output outside the timed region; return failure messages."""
    import workloads as w

    check = w.WORKLOADS[workload][2]
    golden = {}
    if seed == DEFAULT_SEED:
        with open(GOLDEN, encoding="utf-8") as fh:
            golden = json.load(fh)[workload]
    first, verdict, failures = {}, {}, []
    for i, (_ns, (code, out)) in enumerate(results):
        pos = i % len(reqs)
        req = reqs[pos]
        if code != 0:
            failures.append(f"{req.key}: exit {code} {out if code == 'raised' else ''}".rstrip())
            continue
        if workload == "index_graphs":
            out = w.index_output(out)
        if pos not in first:
            first[pos] = out
            problems = check(req, out)
            digest = hashlib.sha256(out.encode()).hexdigest()
            if str(pos) in golden and golden[str(pos)] != digest:
                problems.append("output differs from the stored SHA-256")
            verdict[pos] = problems
        elif out != first[pos]:
            verdict[pos] = verdict[pos] + ["output differs between repeats"]
        if verdict[pos]:
            failures.append(f"{req.key}: {'; '.join(verdict[pos])}")
    return failures


def tail(latencies_ms):
    """Highest of PERCENTILES with at least ten samples beyond it.

    Returns (value, percentile, samples beyond); nearest-rank definition.
    """
    xs = sorted(latencies_ms)
    n = len(xs)
    best = None
    for p in PERCENTILES:
        rank = max(1, math.ceil(n * p / 100))
        if n - rank >= 10 or best is None:
            best = (xs[rank - 1], p, n - rank)
    return best


def metric(value, unit):
    return {"value": value, "unit": unit}


def run_one(args):
    import tracing
    import workloads as w

    cal_start = calibrate()
    setups, reqs = [], None
    for _ in range(SETUP_REPEATS):
        reqs, seconds = setup(args.workload, args.seed)
        setups.append(seconds)
    run = w.WORKLOADS[args.workload][1]

    if not args.trace:
        results, elapsed, _ = timed_loop(reqs, run, args.seconds)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        failures = gate(args.workload, args.seed, reqs, results)
        lat = [ns / 1e6 for ns, _ in results]
        tail_ms, tail_p, beyond = tail(lat)
        metrics = {
            "throughput_rps": metric((len(results) - len(failures)) / elapsed, "1/s"),
            "latency_p50_ms": metric(statistics.median(lat), "ms"),
            "latency_tail_ms": metric(tail_ms, "ms"),
            "peak_rss_mb": metric(rss_mb, "MB"),
            "setup_s": metric(statistics.median(setups), "s"),
        }
        print(f"# latency_tail_ms is p{tail_p}: {beyond} of {len(lat)} samples lie beyond it")
        attempted = len(results)
    else:
        plain, _, _ = timed_loop(reqs, run, args.seconds / 2)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced, _, unverified = timed_loop(reqs, run, args.seconds / 2, tracer)
        finally:
            tracer.uninstall()
        tracer.dump(os.path.join(WORK, args.workload, "spans.jsonl"))
        k = min(len(plain), len(traced))
        overhead = sum(ns for ns, _ in plain[:k]) / sum(ns for ns, _ in traced[:k])
        metrics = tracing.layer_metrics(tracer.spans, len(traced), unverified, overhead)
        failures = gate(args.workload, args.seed, reqs, plain) + gate(args.workload, args.seed, reqs, traced)
        attempted = len(plain) + len(traced)
    cal_end = calibrate()

    for msg in failures[:20]:
        print(f"# FAILED {msg}")
    print(f"# fail_ratio {len(failures) / attempted:.6f} ({len(failures)} of {attempted})")
    print(f"# calibration_ms start {cal_start * 1e3:.2f} end {cal_end * 1e3:.2f}")
    print("# setup_s each " + " ".join(f"{x:.3f}" for x in setups))
    for name, m in metrics.items():
        print(f"# {args.workload} {name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))


def run_all(args):
    """Run every workload in its own process, so peak RSS is per workload."""
    import workloads as w

    combined, attempted, failed, correct = {}, 0, 0, True
    for name in w.WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            sys.exit(f"workload {name} exited with {proc.returncode}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        attempted += result["attempted"]
        failed += result["failed"]
        correct = correct and result["correct"]
        for metric_name, m in result["metrics"].items():
            combined[f"{name}/{metric_name}"] = m
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": combined}))


def record_golden():
    """Write the SHA-256 of the first outputs of every workload at the default seed."""
    import workloads as w

    golden = {}
    for name, (_gen, run, _check) in w.WORKLOADS.items():
        reqs, _ = setup(name, DEFAULT_SEED)
        golden[name] = {}
        for pos, req in enumerate(reqs[:GOLDEN_COUNT]):
            code, out = run(req)
            if code != 0:
                sys.exit(f"{name} {req.key}: exit {code}")
            if name == "index_graphs":
                out = w.index_output(out)
            golden[name][str(pos)] = hashlib.sha256(out.encode()).hexdigest()
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-golden", action="store_true",
                        help=f"store output hashes at seed {DEFAULT_SEED} instead of running")
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "linkdiag", "__init__.py")):
        sys.exit("perfbench: src/linkdiag not found; run from a linkdiag checkout")
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    import workloads as w

    if args.record_golden:
        record_golden()
        return
    if args.workload == "all":
        run_all(args)
        return
    if args.workload not in w.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; choose from {', '.join(w.WORKLOADS)} or all")
    run_one(args)


if __name__ == "__main__":
    main()
