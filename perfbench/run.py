#!/usr/bin/env python3
"""zsim benchmark: one command, three workloads, every output checked.

Usage, from the root of a zsim checkout (the directory holding src/zsim):

    python3 perfbench/run.py --workload {long-run,sweep,cli-session} \\
        --seed N --seconds S --trace {0,1}

One client runs a closed loop: each op starts after the previous one has
ended.  The workload's inputs come from ``--seed`` (see workloads.py);
zsim receives only the generated inputs.  The benchmark repeats rounds of
the workload's fixed work while the next round is expected to end within
``--seconds`` (but at least the workload's minimum number of rounds) and
reports medians over rounds; op latency percentiles are taken over every
op of every round.  ``setup_s`` is the median of three child processes
that each import zsim, generate the inputs and make the first kernel
calls.

With ``--trace 0`` it prints the end-to-end metrics of BENCHMARK.json.
With ``--trace 1`` it alternates untraced and traced rounds and prints the
per-layer metrics: span counts and self times from the traced rounds,
the rhs evaluations counted in one extra round that is not timed, rhs
micro-timings, and for cli-session the cold-import breakdown.  The
difference between traced and untraced rounds is the tracing overhead.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; ``failed / attempted`` is the
fail ratio.  Earlier lines give the environment header, every metric with
its unit, the negative control's outcome and any failure.  Details,
spans and the self-time table go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_PROBES = 3
# cli-session: byte identity needs 2 rounds; a traced run needs 2 untraced and 1 traced
MIN_ROUNDS = {"long-run": 3, "sweep": 3, "cli-session": 2}
MIN_TRACED_ROUNDS = {"long-run": 3, "sweep": 3, "cli-session": 3}
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "NUMBA_NUM_THREADS", "ZSIM_NO_NUMBA")
IMPORT_MODULES = ("numpy", "scipy.stats", "scipy.constants", "zsim")


def load_zsim():
    """Import zsim from this checkout's src, never from anywhere else."""
    if not (SRC / "zsim" / "__init__.py").is_file():
        raise SystemExit(f"error: no zsim sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import zsim

    if Path(zsim.__file__).resolve().parent != SRC / "zsim":
        raise SystemExit(f"error: imported zsim from {zsim.__file__}, not {SRC}")
    return zsim


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=["long-run", "sweep", "cli-session"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    args.seed %= 2**32  # numpy's seeds and zsim's --seed take non-negative integers
    return args


def setup_probe(workload: str, seed: int) -> int:
    """Child process: time import, input generation and first kernel calls."""
    t0 = time.perf_counter()
    load_zsim()
    import workloads

    workdir = OUT / f"probe-{os.getpid()}"
    try:
        workloads.WORKLOADS[workload](seed, workdir)
        workloads.warm_kernels()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"setup_s": time.perf_counter() - t0}))
    return 0


def measure_setup(workload: str, seed: int) -> float:
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise SystemExit(f"error: setup probe failed: {proc.stderr.strip()}")
        times.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
    return statistics.median(times)


def environment(args) -> dict:
    import numpy
    import scipy
    from zsim import kernels

    src = hashlib.sha256()
    for path in sorted((SRC / "zsim").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "backend": "numba" if kernels.JITTED else "python",
        "threads": {k: os.environ.get(k) for k in THREAD_VARS},
        "git_commit": commit,
        "src_sha256": src.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def run_rounds(work, seconds: float, trace: bool, min_rounds: int):
    """Repeat the workload's round while the next one is expected to end
    within ``seconds`` of the start, and at least ``min_rounds`` times.

    With ``trace`` every second round runs with the wrappers installed.
    """
    import tracer

    tr = tracer.Tracer() if trace else None
    rounds = []
    start = time.perf_counter()
    while (len(rounds) < min_rounds
           or time.perf_counter() - start + rounds[-1]["wall_s"] <= seconds):
        traced = trace and len(rounds) % 2 == 1
        undo = tracer.install(tr) if traced else None
        t0 = time.perf_counter()
        try:
            ops = work.round(tr if traced else None)
        finally:
            wall = time.perf_counter() - t0
            if undo:
                undo()
        rounds.append({"traced": traced, "wall_s": wall, "ops": ops})
    return rounds, tr


def percentile(values, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(setup_s: float, rounds: list) -> dict:
    walls = [r["wall_s"] for r in rounds]
    latencies = [op.seconds for r in rounds for op in r["ops"]]
    return {
        "setup_s": setup_s,
        "wall_s": statistics.median(walls),
        "steps_per_s": statistics.median(sum(op.steps for op in r["ops"]) / r["wall_s"]
                                         for r in rounds),
        "ops_per_s": statistics.median(len(r["ops"]) / r["wall_s"] for r in rounds),
        "op_p50_ms": 1e3 * percentile(latencies, 50),
        "op_p90_ms": 1e3 * percentile(latencies, 90),
        "peak_rss_mb": peak_rss_mb(),
    }


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest waited-for child (Linux: KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def import_breakdown(env: dict) -> tuple[float, list[dict]]:
    """Cold ``import zsim.cli``: median wall of two children, and the
    ``-X importtime`` table of a third."""
    cold = []
    for _ in range(2):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import zsim.cli"], env=env, check=True, timeout=120)
        cold.append(time.perf_counter() - t0)
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import zsim.cli"],
                          env=env, capture_output=True, text=True, check=True, timeout=120)
    table = []
    for line in proc.stderr.splitlines():
        fields = line.removeprefix("import time:").split("|")
        if len(fields) == 3 and fields[0].strip().isdigit():
            table.append({"module": fields[2].strip(), "self_us": int(fields[0]),
                          "cumulative_us": int(fields[1])})
    return statistics.median(cold), table


def rhs_pass(work) -> tuple[list, int]:
    """One more round, not timed, with the rhs evaluations counted."""
    import tracer

    if hasattr(work, "rhs_pass"):  # cli-session counts inside its children
        return work.rhs_pass()
    with tracer.count_rhs() as counts:
        ops = work.round()
    return ops, sum(counts.values())


def per_layer(rounds: list, tr, rhs_evals: int, workload: str,
              env: dict) -> tuple[dict, dict]:
    import tracer
    import workloads

    traced = [r for r in rounds if r["traced"]]
    plain = [r for r in rounds if not r["traced"]]
    traced_wall = sum(r["wall_s"] for r in traced)
    m = tracer.layer_metrics(tr.spans, len(traced), traced_wall, rhs_evals)
    m.update(tracer.rhs_micro_us())
    extra = {"self_time_table": tracer.self_time_table(tr.spans), "traced_wall_s": traced_wall}

    for call in workloads.CliSession.CALL_NAMES:
        secs = [op.seconds for r in plain for op in r["ops"] if op.name == call]
        m[f"cli.{call}_s"] = statistics.median(secs) if secs else 0.0
    m["cli.import_s"] = 0.0
    for mod in IMPORT_MODULES:
        m[f"import.cumulative_ms.{mod}"] = 0.0
    m["import.self_ms.zsim"] = 0.0
    if workload == "cli-session":
        m["cli.import_s"], table = import_breakdown(env)
        extra["importtime"] = table
        for row in table:
            if row["module"] in IMPORT_MODULES:
                m[f"import.cumulative_ms.{row['module']}"] = row["cumulative_us"] / 1e3
        m["import.self_ms.zsim"] = sum(row["self_us"] for row in table
                                       if row["module"].split(".")[0] == "zsim") / 1e3
    untraced_wall = statistics.median(r["wall_s"] for r in plain)
    m["trace.overhead_s"] = statistics.median(r["wall_s"] for r in traced) - untraced_wall
    m["trace.overhead_pct"] = 100.0 * m["trace.overhead_s"] / untraced_wall
    return m, extra


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        return setup_probe(args.workload, args.seed)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    load_zsim()
    import workloads

    env = environment(args)
    print("env " + json.dumps(env, sort_keys=True))
    setup_s = measure_setup(args.workload, args.seed)

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / f"work-{stem}-{os.getpid()}"
    try:
        work = workloads.WORKLOADS[args.workload](args.seed, workdir)
        workloads.warm_kernels()
        controls = [] if args.workload == "cli-session" else [workloads.negative_control(args.seed)]
        min_rounds = (MIN_TRACED_ROUNDS if args.trace else MIN_ROUNDS)[args.workload]
        rounds, tr = run_rounds(work, args.seconds, bool(args.trace), min_rounds)
        if args.trace:
            counted, rhs_evals = rhs_pass(work)
            metrics, extra = per_layer(rounds, tr, rhs_evals, args.workload,
                                       workloads.child_env())
        else:
            counted = []
            metrics, extra = end_to_end(setup_s, rounds), {}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    ops = [op for r in rounds for op in r["ops"]] + counted + controls
    failed = [op for op in ops if op.failures]
    key = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[key]}
    if set(units) != set(metrics):
        print(f"error: metrics {sorted(set(metrics) ^ set(units))} differ from "
              f"BENCHMARK.json {key}", file=sys.stderr)
        return 2

    for control in controls:
        print(f"negative control: {'FAIL (missed)' if control.failures else 'reported as failed'}"
              f", divergence {control.info.get('divergence', float('nan')):.3e}")
    if args.workload == "cli-session":
        neg = [op for op in ops if op.name == "compare_negative"]
        print(f"negative control: compare --corrupt-momentum exit 1 in "
              f"{sum(not op.failures for op in neg)}/{len(neg)} runs")
    info: dict[str, float] = {}
    for op in ops:
        for k, v in op.info.items():
            info[k] = max(info.get(k, 0.0), v)
    for k, v in sorted(info.items()):
        print(f"info {k} max {v:.3e}")
    for op in failed:
        print(f"FAILED {op.name}: {'; '.join(op.failures)}")
    timed = sum(len(r["ops"]) for r in rounds)
    print(f"rounds {len(rounds)}, ops per round {len(rounds[0]['ops'])}, timed ops {timed} "
          f"(the percentile sample count), ops checked {len(ops)}, failed {len(failed)}, "
          f"fail_ratio {len(failed) / len(ops):.4f}")
    for name in sorted(metrics):
        print(f"metric {name} {metrics[name]:.6g} {units[name]}")

    detail = {
        "env": env,
        "metrics": metrics,
        "attempted": len(ops),
        "failed": len(failed),
        "rounds": [{"traced": r["traced"], "wall_s": r["wall_s"],
                    "ops": [vars(op) for op in r["ops"]]} for r in rounds],
        "counted_round": [vars(op) for op in counted],
        "controls": [vars(op) for op in controls],
        **extra,
    }
    (OUT / f"{stem}.json").write_text(json.dumps(detail, indent=1, default=float))
    if tr is not None:
        (OUT / f"{stem}-spans.json").write_text(json.dumps(tr.spans))
    print(json.dumps({
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in metrics},
    }))
    return 0 if not failed else 1


if __name__ == "__main__":
    sys.exit(main())
