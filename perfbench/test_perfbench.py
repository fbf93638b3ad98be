"""Self-tests of the benchmark (run: python3 -m pytest perfbench).

They check that the printed metric names are BENCHMARK.json's, that the
negative controls are reported as failures, that a different seed
changes the inputs but not the metric names, and that results from
different kernel backends are not compared.
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.load_zsim()

import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload: str, seed: int, trace: int = 0) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


def names(key: str) -> set[str]:
    return {m["name"] for m in SPEC[key]}


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", ["long-run", "sweep"])
def test_seed_changes_inputs_not_metric_names(workload, tmp_path):
    cls = workloads.WORKLOADS[workload]
    assert cls(1, tmp_path / "a").fingerprint() == cls(1, tmp_path / "b").fingerprint()
    assert cls(1, tmp_path / "a").fingerprint() != cls(2, tmp_path / "c").fingerprint()
    first, second = bench(workload, 1), bench(workload, 2)
    assert set(first["metrics"]) == set(second["metrics"]) == names("end_to_end")
    assert first["correct"] and second["correct"]
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(v["unit"] == units[k] and v["value"] > 0 for k, v in first["metrics"].items())


def test_traced_metric_names():
    result = bench("long-run", 3, trace=1)
    assert set(result["metrics"]) == names("per_layer")


def test_cli_session_metric_names_and_inputs(tmp_path):
    cls = workloads.CliSession
    assert cls(1, tmp_path / "a").fingerprint() != cls(2, tmp_path / "b").fingerprint()
    result = bench("cli-session", 1)
    assert result["correct"] and set(result["metrics"]) == names("end_to_end")


def test_rhs_evaluations_are_counted():
    import tracer
    from zsim import kernels
    from zsim.emfield import FreeField

    if kernels.JITTED:
        pytest.skip("jitted integrators bind their rhs at compile time")
    states = workloads.dynamics.matched_initial_states(0.5, 0.0)
    with tracer.count_rhs() as counts:
        for state in states.values():
            workloads.dynamics.integrate(state, FreeField(), workloads.DT, 7)
    assert counts == dict.fromkeys(workloads.FORMULATIONS, 4 * 7)
    assert kernels.rhs_spinor is kernels.RHS["spinor"]  # restored


def test_sweep_gates_identities_by_gamma(tmp_path):
    # seed 1131 draws a point at v = 0.99975 (gamma 45), where the identity
    # residuals exceed the bounds pinned at rest by round-off alone
    sweep = workloads.Sweep(1131, tmp_path)
    fastest = max(sweep.grid, key=lambda point: float(np.linalg.norm(point[2])))
    op = workloads.Op("fastest")
    sweep._point(op, *fastest)
    assert op.failures == [] and op.info["sweep_gamma"] > 40


def test_negative_control_is_reported_failed(monkeypatch):
    op = workloads.negative_control(1)
    assert not op.failures
    assert op.info["divergence"] > workloads.FREE_COMPARE_TOL
    # without the corruption the same control must count as a failure
    monkeypatch.setattr(workloads, "CORRUPTION", 0.0)
    assert len(workloads.negative_control(1).failures) == 2


def test_cli_negative_control_exits_1(tmp_path):
    session = workloads.CliSession(1, tmp_path / "work")
    call = next(c for c in session.calls if c.name == "compare_negative")
    assert session.run_call(call, tmp_path / "out1").failures == []
    # a run that claimed success on the corrupted state would be a failure
    call.expect = 0
    assert session.run_call(call, tmp_path / "out2").failures


def test_comparison_across_backends_is_refused():
    import prove

    recorded = json.loads((HERE / "baseline.json").read_text())
    other = json.loads(json.dumps(recorded))
    other["env"]["backend"] = "numba" if recorded["env"]["backend"] == "python" else "python"
    assert prove.compare(other, recorded) == 2
    assert prove.compare(recorded, recorded) == 0
