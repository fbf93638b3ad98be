#!/usr/bin/env python3
"""Repeat the benchmark over seeds; check steadiness, record or compare.

    python3 perfbench/prove.py [--runs 10] [--seed0 100] [--trace 0]
        [--record perfbench/baseline.json] [--against perfbench/baseline.json]

Runs ``run.py`` once per seed and workload of BENCHMARK.json (seeds
seed0 .. seed0+runs-1, workloads interleaved), each for BENCHMARK.json's
``run_seconds``.  For every metric it prints the median, the quartiles
and the spread (the distance between the quartiles as a share of the
median, as ``statistics.quantiles(values, n=4)`` gives them), and marks
a spread above a third of the metric's bound as UNSTEADY; the mark is
information and does not change the exit status.  ``--record`` writes
these numbers with the environment header.  ``--against`` compares the
new medians with a recorded file and reports every metric that got
worse by more than its bound; it refuses (exit 2) when the two were
measured on different kernel backends, because those numbers do not
compare, or with a different trace setting or run length.

Exit status: 0, or 1 when an op failed or a metric got worse beyond its
bound, or 2 when the comparison is refused.
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
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_once(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if not proc.stdout.strip():
        raise SystemExit(f"{workload} seed {seed}: no result\n{proc.stderr}")
    result = json.loads(proc.stdout.splitlines()[-1])
    detail = json.loads((HERE / "out" / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return result, detail["env"]


def summarize(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"values": values, "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def compare(new: dict, old: dict) -> int:
    """Print regressions of ``new`` against ``old``; exit code 0, 1 or 2."""
    if new["env"]["backend"] != old["env"]["backend"]:
        print(f"refused: backend {new['env']['backend']} vs recorded "
              f"{old['env']['backend']}; numbers from different kernels do not compare")
        return 2
    if (new["trace"], new["run_seconds"]) != (old["trace"], old["run_seconds"]):
        print("refused: trace or run_seconds differ from the recorded runs")
        return 2
    for key in ("nproc", "python", "numpy", "scipy"):
        if new["env"][key] != old["env"][key]:
            print(f"warning: {key} {new['env'][key]} vs recorded {old['env'][key]}")
    better = {m["name"]: m["better"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    worse = 0
    for workload, entry in new["workloads"].items():
        for name, stats in entry["metrics"].items():
            ref = old["workloads"].get(workload, {}).get("metrics", {}).get(name)
            if ref is None or not ref["median"] or stats.get("bound") is None:
                continue
            change = (stats["median"] - ref["median"]) / ref["median"]
            if better[name] == "higher":
                change = -change
            verdict = "worse" if change > stats["bound"] else "ok"
            worse += verdict == "worse"
            print(f"{workload:12s} {name:14s} {ref['median']:12.6g} -> {stats['median']:12.6g}"
                  f"  {100 * change:+6.1f}% worse (bound {100 * stats['bound']:.0f}%)  {verdict}")
    return 1 if worse else 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seed0", type=int, default=100)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--record", type=Path)
    p.add_argument("--against", type=Path)
    args = p.parse_args(argv)

    workloads = [w["name"] for w in SPEC["workloads"]]
    metrics_spec = SPEC["per_layer" if args.trace else "end_to_end"]
    values = {w: {m["name"]: [] for m in metrics_spec} for w in workloads}
    counts = {w: {"attempted": 0, "failed": 0} for w in workloads}
    env = None
    for i in range(args.runs):
        for workload in workloads:
            result, env = run_once(workload, args.seed0 + i, args.trace)
            counts[workload]["attempted"] += result["attempted"]
            counts[workload]["failed"] += result["failed"]
            for name, metric in result["metrics"].items():
                values[workload][name].append(metric["value"])
            print(f"run {i} {workload}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}", flush=True)

    report = {"env": {k: v for k, v in env.items() if k not in ("workload", "seed", "trace")},
              "run_seconds": SPEC["run_seconds"], "runs": args.runs, "seed0": args.seed0,
              "trace": args.trace, "workloads": {}}
    for workload in workloads:
        entry = dict(counts[workload], metrics={})
        for m in metrics_spec:
            stats = summarize(values[workload][m["name"]])
            stats["unit"] = m["unit"]
            stats["bound"] = m.get("bound")
            entry["metrics"][m["name"]] = stats
            flag = ""
            if m.get("bound") is not None and m["name"] != "setup_s":
                if stats["spread"] > m["bound"] / 3:
                    flag = "  UNSTEADY (> bound/3)"
            print(f"{workload:12s} {m['name']:40s} median {stats['median']:12.6g} {m['unit']:6s}"
                  f" q1 {stats['q1']:12.6g} q3 {stats['q3']:12.6g} spread {stats['spread']:.3f}"
                  f"{flag}")
        print(f"{workload:12s} failed {entry['failed']}/{entry['attempted']}")
        report["workloads"][workload] = entry
    if args.record:
        args.record.write_text(json.dumps(report, indent=1) + "\n")
    status = 1 if any(c["failed"] for c in counts.values()) else 0
    if args.against:
        status = max(status, compare(report, json.loads(args.against.read_text())))
    return status


if __name__ == "__main__":
    sys.exit(main())
