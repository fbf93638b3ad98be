"""Spans recorded around calls into zsim's public functions.

``install`` replaces each traced function at the attribute its callers
look up at call time (a module attribute, or an entry of
``kernels.INTEGRATORS``) with a wrapper that records a span: name,
start, end, parent span, op id and a few counts.  Spans stay in memory
until the benchmark writes them out.  Nothing inside ``src/zsim``
changes.

The rhs functions are not wrapped in traced rounds: the RK4 loops call
them four times per step, so a span there would cost more than the work
it measures.  ``count_rhs`` counts them in a separate pass that is not
timed, and ``rhs_micro_us`` times them in a loop of its own.

Times come from ``time.perf_counter_ns``, which on Linux reads
CLOCK_MONOTONIC, so spans written by child processes line up with the
parent's.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import os
import statistics
import time

FIELD_NAMES = ("free", "uniform", "coulomb")  # kernels.FIELD_* codes 0, 1, 2


class Tracer:
    """In-memory span recorder for one process (single-threaded use)."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.op: int | None = None

    def new_op(self) -> None:
        """Spans opened from now on belong to a new op."""
        self.op = 0 if self.op is None else self.op + 1

    def _open(self, name: str) -> dict:
        span = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "op": self.op,
            "start_ns": time.perf_counter_ns(),
            "end_ns": None,
            "attrs": {},
        }
        self.spans.append(span)
        self._stack.append(span["id"])
        return span

    def _close(self, span: dict) -> None:
        span["end_ns"] = time.perf_counter_ns()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        span = self._open(name)
        span["attrs"].update(attrs)
        try:
            yield span
        finally:
            self._close(span)

    def wrap(self, fn, name: str, attrs=None):
        """``fn`` recording a span per call; ``attrs(args, kwargs, result)``
        adds counts once the call has returned."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if attrs is not None:
                span["attrs"].update(attrs(args, kwargs, result))
            return result

        return traced

    def adopt(self, child_spans: list[dict], parent: int) -> None:
        """Attach spans written by a child process under span ``parent``."""
        offset = len(self.spans)
        op = self.spans[parent]["op"]
        for span in child_spans:
            span = dict(span)
            span["id"] += offset
            span["parent"] = parent if span["parent"] is None else span["parent"] + offset
            span["op"] = op
            self.spans.append(span)


def _bound(fn, args, kwargs) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def install(tracer: Tracer):
    """Wrap zsim's public entry points; returns a function that undoes it."""
    from zsim import cli, dynamics, kernels, scenario, spinor, spintensor, trajio, wavefield

    undo = []

    def patch(owner, key, name, attrs=None):
        is_dict = isinstance(owner, dict)
        original = owner[key] if is_dict else getattr(owner, key)
        wrapped = tracer.wrap(original, name, attrs)
        if is_dict:
            owner[key] = wrapped
            undo.append(lambda: owner.__setitem__(key, original))
        else:
            setattr(owner, key, wrapped)
            undo.append(lambda: setattr(owner, key, original))

    def kernel_attrs(a, k, r, f):
        # kernel signature: (state, fcode, fparams, q, dt, n_steps, record_every, out);
        # it returns -1 after all n_steps, or the number of records written when
        # it stopped on a non-finite state at step records * record_every
        steps = int(a[5]) if r < 0 else int(r) * int(a[6])
        return {"formulation": f, "field": FIELD_NAMES[int(a[1])], "steps": steps}

    for formulation in list(kernels.INTEGRATORS):
        patch(kernels.INTEGRATORS, formulation, "kernels.integrate",
              lambda a, k, r, f=formulation: kernel_attrs(a, k, r, f))
    patch(dynamics, "integrate", "dynamics.integrate",
          lambda a, k, r: {"formulation": r.formulation, "samples": len(r)})
    patch(dynamics, "validate_state", "dynamics.validate_state")
    for owner in (dynamics, scenario):
        patch(owner, "matched_initial_states", "dynamics.matched_initial_states")
    patch(dynamics, "compare_trajectories", "dynamics.compare_trajectories")
    patch(dynamics, "oracle_errors", "dynamics.oracle_errors")
    patch(spintensor, "identity_suite", "spintensor.identity_suite")
    patch(spinor, "operator_identity_suite", "spinor.operator_identity_suite")
    patch(trajio, "write_csv", "trajio.write_csv",
          lambda a, k, r: {"rows": len(a[0]), "bytes": os.path.getsize(a[1])})
    patch(trajio, "write_columns_csv", "trajio.write_csv",
          lambda a, k, r: {"rows": len(next(iter(a[1].values()))),
                           "bytes": os.path.getsize(a[0])})

    ensemble = wavefield.ensemble_uniformity

    def ensemble_attrs(a, k, r):
        arg = _bound(ensemble, a, k)
        # the corrupted flow is integrated with RK4; the free flow is closed form
        steps = max(1, int(arg["steps_per_period"] * arg["periods"]))
        return {"particle_steps": arg["n"] * steps if arg["flow"] == "corrupted" else 0}

    patch(wavefield, "ensemble_uniformity", "wavefield.ensemble_uniformity", ensemble_attrs)
    for owner in (scenario, cli):
        patch(owner, "load_scenario", "scenario.load_scenario")

    def uninstall():
        while undo:
            undo.pop()()

    return uninstall


@contextlib.contextmanager
def count_rhs():
    """Count rhs evaluations per formulation while the block runs.

    Replaces each ``kernels.rhs_<formulation>`` with a counting wrapper
    and restores it afterwards.  The pure-Python RK4 integrators look their
    rhs up in the module's globals at call time, so every evaluation is
    seen; jitted integrators bind it at compile time, so with the numba
    backend the counts stay 0.
    """
    from zsim import kernels

    counts = dict.fromkeys(kernels.RHS, 0)
    originals = {f: getattr(kernels, f"rhs_{f}") for f in counts}

    def counting(f, rhs):
        def counted(*args):
            counts[f] += 1
            return rhs(*args)

        return counted

    for f, rhs in originals.items():
        setattr(kernels, f"rhs_{f}", counting(f, rhs))
    try:
        yield counts
    finally:
        for f, rhs in originals.items():
            setattr(kernels, f"rhs_{f}", rhs)


def self_times(spans: list[dict]) -> dict[int, int]:
    """Span id -> duration minus the time its child spans cover (ns)."""
    children: dict[int, list[tuple[int, int]]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append((span["start_ns"], span["end_ns"]))
    out = {}
    for span in spans:
        start, end = span["start_ns"], span["end_ns"]
        covered, cursor = 0, start
        for lo, hi in sorted(children.get(span["id"], [])):
            lo, hi = max(lo, cursor), min(hi, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[span["id"]] = end - start - covered
    return out


def self_time_table(spans: list[dict]) -> list[dict]:
    """Per span name: calls, total and self seconds, heaviest self first."""
    selfs = self_times(spans)
    rows: dict[str, dict] = {}
    for span in spans:
        row = rows.setdefault(span["name"], {"name": span["name"], "calls": 0,
                                             "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += (span["end_ns"] - span["start_ns"]) / 1e9
        row["self_s"] += selfs[span["id"]] / 1e9
    return sorted(rows.values(), key=lambda r: -r["self_s"])


def layer_metrics(spans: list[dict], rounds: int, traced_wall_s: float,
                  rhs_evals: int) -> dict[str, float]:
    """Per-layer numbers from ``rounds`` traced rounds that took
    ``traced_wall_s`` in all; ``rhs_evals`` comes from one counted round.

    Totals (``*_s``, counts) are per traced round; ``*_ms`` are means per
    call; rates are totals over totals.  A layer the workload never calls
    reads 0.
    """
    selfs = self_times(spans)
    by_name: dict[str, list[dict]] = {}
    for span in spans:
        by_name.setdefault(span["name"], []).append(span)

    def dur(span):
        return (span["end_ns"] - span["start_ns"]) / 1e9

    def total(name):
        return sum(dur(s) for s in by_name.get(name, []))

    def mean_ms(name):
        spans_ = by_name.get(name, [])
        return 1e3 * total(name) / len(spans_) if spans_ else 0.0

    def ratio(a, b):
        return a / b if b > 0 else 0.0

    m: dict[str, float] = {}
    kernel = by_name.get("kernels.integrate", [])
    for f in ("position", "spintensor", "spinor"):
        for field in FIELD_NAMES:
            sel = [s for s in kernel if s["attrs"]["formulation"] == f and s["attrs"]["field"] == field]
            m[f"kernels.steps_per_s.{f}.{field}"] = ratio(
                sum(s["attrs"]["steps"] for s in sel), sum(dur(s) for s in sel))
    m["kernels.busy_s"] = total("kernels.integrate") / rounds
    m["kernels.busy_share"] = ratio(total("kernels.integrate"), traced_wall_s)
    m["kernels.rhs_evals"] = rhs_evals

    integ = by_name.get("dynamics.integrate", [])
    m["dynamics.integrate_self_s"] = sum(selfs[s["id"]] for s in integ) / 1e9 / rounds
    m["dynamics.validate_ms"] = mean_ms("dynamics.validate_state")
    m["dynamics.matched_states_ms"] = mean_ms("dynamics.matched_initial_states")
    m["dynamics.compare_s"] = total("dynamics.compare_trajectories") / rounds
    m["dynamics.oracle_s"] = total("dynamics.oracle_errors") / rounds
    for f in ("position", "spintensor", "spinor"):
        sel = [s for s in integ if s["attrs"].get("formulation") == f]
        m[f"dynamics.postprocess_us_per_sample.{f}"] = 1e6 * ratio(
            sum(selfs[s["id"]] for s in sel) / 1e9, sum(s["attrs"]["samples"] for s in sel))

    m["spintensor.identity_suite_ms"] = mean_ms("spintensor.identity_suite")
    m["spinor.operator_identity_suite_ms"] = mean_ms("spinor.operator_identity_suite")

    writes = by_name.get("trajio.write_csv", [])
    rows = sum(s["attrs"]["rows"] for s in writes)
    m["trajio.write_csv_s"] = total("trajio.write_csv") / rounds
    m["trajio.rows_written"] = rows / rounds
    m["trajio.bytes_written"] = sum(s["attrs"]["bytes"] for s in writes) / rounds
    m["trajio.us_per_row"] = 1e6 * ratio(total("trajio.write_csv"), rows)

    ens = by_name.get("wavefield.ensemble_uniformity", [])
    rk4 = [s for s in ens if s["attrs"]["particle_steps"] > 0]
    m["wavefield.ensemble_s"] = total("wavefield.ensemble_uniformity") / rounds
    m["wavefield.particle_steps_per_s"] = ratio(
        sum(s["attrs"]["particle_steps"] for s in rk4), sum(dur(s) for s in rk4))
    m["scenario.load_ms"] = mean_ms("scenario.load_scenario")
    m["cli.import_trajio_share"] = ratio(
        total("cli.import") + total("trajio.write_csv"), traced_wall_s)
    return m


def rhs_micro_us(repeats: int = 5, calls: int = 4000) -> dict[str, float]:
    """Median time of one rhs evaluation per formulation (microseconds),
    from a loop over ``kernels.RHS`` on a weak uniform-field state."""
    import numpy as np
    from zsim import dynamics, kernels
    from zsim.constants import Q_ELECTRON

    fparams = np.array([0.0, 0.0, 0.0, 0.0, 0.0, 5e-7])  # (e0, b0)
    states = dynamics.matched_initial_states(1.0, 0.4, velocity=np.array([0.3, 0.1, 0.0]))
    out = {}
    for f, state in states.items():
        rhs = kernels.RHS[f]
        packed = dynamics.pack_state(state).astype(kernels.STATE_DTYPE[f])
        deriv = np.empty_like(packed)
        samples = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            for _ in range(calls):
                rhs(packed, kernels.FIELD_UNIFORM, fparams, Q_ELECTRON, deriv)
            samples.append((time.perf_counter() - t0) / calls)
        out[f"kernels.rhs_us.{f}"] = 1e6 * statistics.median(samples)
    return out
