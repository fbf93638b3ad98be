"""Command-line interface: verbs, exit codes, artifact determinism."""

import ast
import contextlib
import hashlib
import importlib.util
import io
import itertools
import json
import os
import platform
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import zsim
from zsim.cli import EXIT_FAIL, EXIT_OK, EXIT_USAGE, main
from zsim.constants import C, MASS, OMEGA0, OMEGA1
from zsim.dynamics import matched_initial_states
from zsim.scenario import load_scenario
from zsim.states import SpinorState
from zsim.trajio import read_csv
from zsim.wavefield import proper_time_of


def test_run_writes_trajectory_and_summary(tmp_path):
    rc = main(
        ["run", "--scenario", "free-boosted", "--formulation", "position",
         "--out", str(tmp_path)]
    )
    assert rc == EXIT_OK
    csv_path = tmp_path / "free-boosted-position.csv"
    summary_path = tmp_path / "free-boosted-position-summary.json"
    assert csv_path.is_file() and summary_path.is_file()
    summary = json.loads(summary_path.read_text())
    assert summary["formulation"] == "position"
    assert summary["drift"] <= summary["drift_tolerance"]
    assert summary["oracle_error"]["overall"] < 1e-8
    cols = read_csv(csv_path)
    assert len(cols["tau"]) == summary["n_steps"] // summary["record_every"] + 1


def test_run_artifacts_byte_identical(tmp_path):
    """Same scenario, same seed-free pipeline: artifacts must not wobble."""
    out1, out2 = tmp_path / "one", tmp_path / "two"
    for out in (out1, out2):
        rc = main(
            ["run", "--scenario", "free-rest", "--formulation", "spintensor",
             "--out", str(out)]
        )
        assert rc == EXIT_OK
    name = "free-rest-spintensor"
    assert (out1 / f"{name}.csv").read_bytes() == (out2 / f"{name}.csv").read_bytes()
    assert (
        out1 / f"{name}-summary.json"
    ).read_bytes() == (out2 / f"{name}-summary.json").read_bytes()


def test_verify_free_scenario_passes(tmp_path, capsys):
    rc = main(["verify", "--scenario", "free-boosted", "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == EXIT_OK
    assert "FAIL" not in out
    for needle in ("drift[position]", "oracle[spinor]", "equivalence"):
        assert needle in out, f"missing check line {needle}: {out}"


def test_verify_identity_suite(capsys):
    rc = main(["verify", "--suite", "identities"])
    out = capsys.readouterr().out
    assert rc == EXIT_OK
    assert "PASS identities[spintensor]" in out
    assert "PASS identities[operator]" in out


def test_verify_scenario_suite_needs_scenario():
    assert main(["verify"]) == EXIT_USAGE


def test_wave_grid_export(tmp_path):
    rc = main(["wave", "--scenario", "free-boosted", "--axes", "x0,x1",
               "--points", "9", "--extent", "4", "--out", str(tmp_path)])
    assert rc == EXIT_OK
    lines = (tmp_path / "free-boosted-wave.csv").read_text().splitlines()
    header = lines[0].split(",")
    assert header == ["x0", "x1", "x2", "x3",
                      "re1", "im1", "re2", "im2", "re3", "im3", "re4", "im4"]
    assert len(lines) == 1 + 9 * 9
    first = [float(v) for v in lines[1].split(",")]
    assert first[0] == first[1] == -2.0
    assert first[2] == first[3] == 0.0
    # the origin row is at proper time zero, so it holds the raw amplitudes
    origin = [float(v) for v in lines[1 + 4 * 9 + 4].split(",")]
    assert origin[0] == origin[1] == 0.0
    amps = load_scenario("free-boosted").initial_state("spinor").phi
    for k in range(4):
        assert origin[4 + 2 * k] == pytest.approx(amps[k].real, abs=1e-15)
        assert origin[5 + 2 * k] == pytest.approx(amps[k].imag, abs=1e-15)


def test_wave_phase_bound_reads_the_chosen_axes(tmp_path):
    """The largest wave phase is w1 (|pi_a| + |pi_b|) extent / (2 m c^2) over the
    grid axes: the bound sits there, and an axis pair without momentum has none."""
    pi = load_scenario("free-boosted").initial_state("spinor").pi
    edge = 2.0**51 * 2.0 * MASS * C**2 / (OMEGA1 * float(abs(pi[0]) + abs(pi[1])))
    for extent, axes, rc in [(edge * (1 - 1e-9), "x0 x1", EXIT_OK),
                             (edge * (1 + 1e-9), "x0 x1", EXIT_USAGE),
                             (1e300, "x2 x3", EXIT_OK)]:
        argv = ["wave", "--scenario", "free-boosted", "--axes", axes, "--points", "3",
                "--extent", repr(extent), "--out", str(tmp_path)]
        assert main(argv) == rc, argv


@given(
    verb=st.sampled_from(["ensemble", "wave"]),
    velocity=st.lists(st.floats(-0.57, 0.57), min_size=3, max_size=3),
    size=st.floats(-3.0, 300.0).map(lambda e: 10.0**e),
    near_edge=st.none() | st.floats(-2.0, 2.0),
    periods=st.floats(-3.0, 15.0).map(lambda e: 10.0**e),
    axes=st.sampled_from([f"x{a} x{b}" for a, b in itertools.combinations(range(4), 2)]),
)
@settings(max_examples=100, deadline=None)
def test_ensemble_and_wave_evaluate_no_phase_past_2_51(verb, velocity, size, near_edge, periods,
                                                       axes):
    """ensemble and wave exit 2, or exit 0 having evaluated no zitter phase past 2**51.

    The phase is taken at the events: w1 tau(x) at the wave grid's corners
    (--points 2 makes them the whole grid), and w0 (tau(x) + s) at the
    corners of the ensemble box [0, box]^3 for s = 0 and s = the span.  The
    box or extent is log-uniform up to 1e300, or, with ``near_edge``, within
    a factor 4 of where the corners alone reach the phase 2**51.
    """
    v = " ".join(map(repr, velocity))
    with tempfile.TemporaryDirectory() as tmp:
        if verb == "wave":
            ini = Path(tmp) / "moving.ini"
            ini.write_text(f"[initial]\nvelocity = {v}\n")
            state = load_scenario(str(ini)).initial_state("spinor")
            corners = np.zeros((4, 4))
            cols = [int(a[1]) for a in axes.split()]
            corners[:, cols] = list(itertools.product((-0.5, 0.5), repeat=2))
            omega, shifts = OMEGA1, [0.0]
        else:
            # the ensemble synchronizes tau(x) = pi.x / (m c^2) from the origin event
            state = matched_initial_states(0.0, velocity=np.array(velocity))["spinor"]
            state = SpinorState(np.zeros(4), state.phi, state.pi)
            corners = np.zeros((8, 4))
            corners[:, 1:] = list(itertools.product((0.0, 1.0), repeat=3))
            omega, shifts = OMEGA0, [0.0, periods * 2.0 * np.pi / OMEGA0]
        per_size = omega * float(np.abs(proper_time_of(state, corners)).max())
        if near_edge is not None and per_size > 0.0:
            size = 2.0 ** (51.0 + near_edge) / per_size
        taus = proper_time_of(state, size * corners)
        phase = omega * max(float(np.abs(taus + s).max()) for s in shifts)
        assume(abs(phase / 2.0**51 - 1.0) > 1e-9)
        if verb == "wave":
            argv = ["wave", "--scenario", str(ini), "--axes", axes, "--points", "2",
                    "--extent", repr(size)]
        else:
            argv = ["ensemble", "--velocity", v, "--box", repr(size),
                    "--periods", repr(periods), "--n", "1", "--bins", "1"]
        rc, stderr = _main_outcome([*argv, "--out", tmp])
    assert rc in (EXIT_OK, EXIT_USAGE), stderr
    if rc == EXIT_USAGE:
        assert len(_error_lines(stderr)) == 1, stderr
    else:
        assert phase <= 2.0**51, f"{argv} evaluated a phase of {phase:.4g}"


def test_wave_rejects_bad_axes(tmp_path):
    rc = main(["wave", "--scenario", "free-rest", "--axes", "x0 x0",
               "--out", str(tmp_path)])
    assert rc == EXIT_USAGE


def test_compare_weak_field_passes(tmp_path, capsys):
    rc = main(["compare", "--scenario", "uniform-b-weak", "--out", str(tmp_path)])
    assert rc == EXIT_OK
    report = json.loads((tmp_path / "uniform-b-weak-compare.json").read_text())
    assert report["pass"] is True
    assert report["overall"] <= report["tolerance"]
    assert set(report["formulations"]) == {"position", "spintensor", "spinor"}
    assert "PASS equivalence" in capsys.readouterr().out


def test_compare_corrupted_momentum_detected(tmp_path, capsys):
    """The negative control must fail loudly, not quietly pass."""
    rc = main(
        ["compare", "--scenario", "free-boosted", "--no-validate",
         "--corrupt-momentum", "1e-4", "--out", str(tmp_path)]
    )
    assert rc == EXIT_FAIL
    report = json.loads((tmp_path / "free-boosted-compare.json").read_text())
    assert report["pass"] is False
    assert report["overall"] > 100 * report["tolerance"]
    assert "FAIL equivalence" in capsys.readouterr().out


def test_compare_corrupted_momentum_detected_with_jobs(tmp_path, capsys):
    """The worker pool applies the corruption and --no-validate too."""
    rc = main(
        ["compare", "--scenario", "free-rest", "--no-validate",
         "--corrupt-momentum", "0.01", "--jobs", "2", "--out", str(tmp_path)]
    )
    assert rc == EXIT_FAIL
    report = json.loads((tmp_path / "free-rest-compare.json").read_text())
    assert report["pass"] is False
    # with validation on, the worker's ConstraintViolationError crosses the pool
    capsys.readouterr()
    rc = main(
        ["compare", "--scenario", "free-rest", "--corrupt-momentum", "0.01",
         "--jobs", "2", "--out", str(tmp_path / "validated")]
    )
    assert rc == EXIT_FAIL
    assert capsys.readouterr().err.count("error: constraint validation failed") == 1


_PHASED_E0_INI = """[scenario]
name = phased-e0
formulation = all
[field]
variant = uniform
e0 = 2e-7 0 -1e-7
[initial]
theta = pi/3
phi = 0.4
phase = 2*pi/3
velocity = 0.3 0 0.1
origin = 0.5 1 -2 3
[run]
periods = 2
[tolerances]
drift = 1e-5
compare = 1e-5
"""


def test_compare_jobs_report_byte_identical(tmp_path):
    """The pool's workers run the parsed scenario, a preset's or an INI file's, and
    write the serial run's bytes."""
    ini = tmp_path / "phased-e0.ini"
    ini.write_text(_PHASED_E0_INI)
    for scenario, name in (("free-rest", "free-rest"), (str(ini), "phased-e0")):
        for jobs in ("1", "2"):
            rc = main(["compare", "--scenario", scenario, "--jobs", jobs,
                       "--out", str(tmp_path / name / jobs)])
            assert rc == EXIT_OK
        report = f"{name}-compare.json"
        assert ((tmp_path / name / "1" / report).read_bytes()
                == (tmp_path / name / "2" / report).read_bytes())


def test_compare_divergence_crosses_the_pool(tmp_path):
    """Two steps per period is past RK4's stability limit: with and without the
    pool, compare exits 1 on the same single divergence line."""
    ini = tmp_path / "diverging.ini"
    ini.write_text("[scenario]\nname = diverging\nformulation = all\n[initial]\n"
                   "theta = pi/3\nphi = 0.4\nvelocity = 0.3 0 0.1\n"
                   "[run]\nsteps_per_period = 2\nperiods = 400\nrecord_every = 1\n")
    errors = []
    for jobs in ("1", "2"):
        rc, stderr = _main_outcome(["compare", "--scenario", str(ini), "--jobs", jobs,
                                    "--out", str(tmp_path / jobs)])
        assert rc == EXIT_FAIL
        errors.append(_error_lines(stderr))
    assert errors[0] == errors[1] == ["error: integration diverged near tau = 788.54"]


def test_compare_pool_has_at_most_one_worker_per_formulation(tmp_path, monkeypatch):
    """A fork-started process pool launches all max_workers at once, so a large
    --jobs must not become that many processes; a thread pool stands in here."""
    import concurrent.futures

    sizes = []

    class RecordingPool(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, max_workers):
            sizes.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    rc = main(["compare", "--scenario", "free-rest", "--jobs", "1000", "--out", str(tmp_path)])
    assert rc == EXIT_OK
    assert sizes == [3]


def _hash_tool():
    """tools/artifact_hashes.py as a module, and the lines of tools/SHA256SUMS."""
    tools = Path(__file__).resolve().parents[1] / "tools"
    spec = importlib.util.spec_from_file_location("artifact_hashes", tools / "artifact_hashes.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool, (tools / "SHA256SUMS").read_text().splitlines()


def test_golden_hash_file_names_the_tool_calls():
    """tools/SHA256SUMS holds one exit line per call of tools/artifact_hashes.py,
    in order, so a call added, dropped or edited without regenerating it fails here."""
    tool, lines = _hash_tool()
    # "exit <code>  <argv>", then "  error: ..." when the call printed one
    named = [line.split("  ")[1] for line in lines if line.startswith("exit ")]
    assert named == [" ".join(argv) for argv in tool.calls()]


def test_rest_spinor_run_keeps_its_golden_bytes(tmp_path):
    """The theta = 0 rest spinor run, whose amplitude has exactly zero parts,
    writes the artifact bytes that tools/SHA256SUMS records for its call."""
    tool, lines = _hash_tool()
    host = (platform.python_version(), np.__version__, platform.machine())
    made_on = re.search(r"Python (\S+) and numpy (\S+) on (\S+)", tool.__doc__).groups()
    if host != made_on:
        pytest.skip(f"host Python {host[0]}, numpy {host[1]}, {host[2]}: the golden "
                    f"bytes were made with Python {made_on[0]}, numpy {made_on[1]}, {made_on[2]}")
    argv = ["run", "--scenario", "free-rest", "--formulation", "spinor"]
    where = tmp_path / tool._slug(tool.calls().index(argv), argv)
    assert main([*argv, "--out", str(where)]) == EXIT_OK
    got = [f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.relative_to(tmp_path)}"
           for path in sorted(where.rglob("*"))]
    want = [line for line in lines if line.partition("  ")[2].startswith(f"{where.name}/")]
    assert len(want) == 2
    assert got == want


def test_cli_import_loads_no_scipy(tmp_path):
    """No scipy module is loaded by importing the CLI, nor by running either
    ensemble flow, the verb that once imported it; nor is concurrent.futures
    or hashlib (OpenSSL), which only one branch of a verb uses."""
    src = str(Path(zsim.__file__).resolve().parents[1])
    code = ("import sys\n"
            "from zsim.cli import main\n"
            "argv = sys.argv[1:]\n"
            "codes = [main([*argv, '--flow', f]) for f in ('free', 'corrupted')] if argv else []\n"
            "print(codes, sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))")
    ensemble = ["ensemble", "--n", "2000", "--periods", "2", "--bins", "4",
                "--out", str(tmp_path)]
    for argv, want in (([], "[] []"), (ensemble, "[0, 0] []")):
        proc = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True,
                              text=True, env={**os.environ, "PYTHONPATH": src}, check=True,
                              timeout=120)
        assert proc.stdout.splitlines()[-1] == want
    code = ("import sys, zsim.cli; print([m for m in "
            "('concurrent.futures', 'hashlib', '_hashlib') if m in sys.modules])")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, check=True, timeout=120)
    assert proc.stdout.strip() == "[]"


def test_import_loads_only_what_it_names():
    """``import zsim`` loads no submodule; ``import zsim.dynamics`` loads none
    of the verb-side modules."""
    src = str(Path(zsim.__file__).resolve().parents[1])
    loaded = "print(' '.join(sorted(m for m in sys.modules if m.startswith('zsim.'))))"
    code = f"import sys, zsim; {loaded}; import zsim.dynamics; {loaded}"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, check=True, timeout=120)
    after_package, after_dynamics = proc.stdout.splitlines()
    assert after_package == ""
    after_dynamics = set(after_dynamics.split())
    assert "zsim.dynamics" in after_dynamics
    assert after_dynamics.isdisjoint({"zsim.wavefield", "zsim.trajio", "zsim.cli"})


def test_every_import_is_used():
    """Each name a module in src/zsim, tests or tools imports (``__future__``
    aside) is referenced somewhere in that module."""
    repo = Path(__file__).resolve().parents[1]
    unused = []
    for path in sorted(p for d in ("src/zsim", "tests", "tools") for p in (repo / d).glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update(a.asname or a.name.partition(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported.update(a.asname or a.name for a in node.names)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.relative_to(repo)}: {name}" for name in sorted(imported - used)]
    assert unused == []


def test_every_top_level_name_is_referenced():
    """Each top-level function, class and assigned name of src/zsim (dunder names
    aside) is referenced in src/zsim, tests, tools or perfbench: as a loaded name,
    an attribute, an imported name, or a word of a string constant that is not a
    docstring (the generated RK4 loops call helpers from their source text)."""
    repo = Path(__file__).resolve().parents[1]
    defined, used = [], set()
    for path in sorted(p for d in ("src/zsim", "tests", "tools", "perfbench")
                       for p in (repo / d).glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        docstrings = {id(node.body[0].value) for node in ast.walk(tree)
                      if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef))
                      and node.body and isinstance(node.body[0], ast.Expr)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name.rpartition(".")[2])
            elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                    and id(node) not in docstrings:
                used.update(re.findall(r"\w+", node.value))
        if path.parent.name != "zsim":
            continue
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                names = []
            defined += [(path.name, name) for name in names if not name.startswith("__")]
    assert [f"src/zsim/{file}: {name}" for file, name in defined if name not in used] == []


def _main_outcome(argv) -> tuple[int, str]:
    """Exit code and stderr of main(argv), counting argparse exits too."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
    return rc, err.getvalue()


def _error_lines(stderr: str) -> list[str]:
    return [line for line in stderr.splitlines() if "error:" in line]


_BAD_INI = {
    "superluminal": "[initial]\nvelocity = 1.5 0 0\n",
    "nan-field": "[field]\nvariant = uniform\nb0 = nan 0 0\n",
    "short-run": "[run]\nperiods = 0.001\n",
    "sparse-record": "[run]\nperiods = 1\nrecord_every = 5000\n",
    "huge-run": "[scenario]\nformulation = position\n[run]\nperiods = 1e12\n",
    "dipole": "[field]\nvariant = dipole\n",
    "escaping-name": "[scenario]\nname = ../evil\nformulation = position\n"
                     "[run]\nperiods = 0.01\n",
    # misspelt keys and sections, which would run with their defaults
    "typo-key": "[run]\nperiod = 0.01\nstep_per_period = 10\n",
    "typo-section": "[feild]\nvariant = uniform\nb0 = 0 0 1e-3\n[run]\nperiods = 0.01\n",
    "typo-tolerance": "[tolerances]\ndrfit = 1e-30\n[run]\nperiods = 0.01\n",
    # every section already sets its keys, so a [DEFAULT] value is never read
    "default-section": "[DEFAULT]\nperiods = 0.01\n",
    "bad-b0": "[field]\nvariant = uniform\nb0 = 0 0 x\n",
    # the wave's tau is measured from the state's event, which is this far from x = 0
    "far-origin": "[initial]\norigin = 1e17 0 0 0\n",
}


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "--scenario", "INI:superluminal"],
        ["run", "--scenario", "INI:nan-field"],
        ["run", "--scenario", "INI:short-run"],
        ["run", "--scenario", "INI:sparse-record"],
        ["sample", "--theta", "1", "--count", "0"],
        ["ensemble", "--n", "0"],
        ["ensemble", "--bins", "0"],
        ["ensemble", "--box", "inf"],
        ["ensemble", "--periods", "nan"],
        # more than 2**53 / 50 periods: the corrupted flow's step count overflows
        # int or never ends, and the free flow's positions all turn NaN
        ["ensemble", "--flow", "corrupted", "--periods", "1e308"],
        ["ensemble", "--flow", "corrupted", "--periods", "1e300"],
        ["ensemble", "--flow", "free", "--periods", "1e308", "--n", "10"],
        ["ensemble", "--velocity", "1 1 1"],
        ["compare", "--scenario", "free-rest", "--jobs", "0"],
        ["compare", "--scenario", "free-rest", "--corrupt-momentum", "nan"],
        ["compare", "--scenario", "free-rest", "--corrupt-momentum", "inf"],
        ["wave", "--scenario", "free-boosted", "--extent", "nan"],
        ["wave", "--scenario", "free-boosted", "--extent", "inf"],
        # grid corners whose wave phase passes 2**51 keep no phase bits
        ["wave", "--scenario", "free-boosted", "--extent", "1e300", "--points", "3"],
        # arrays beyond the 2**47-byte address space: allocation fails at once
        ["run", "--scenario", "INI:huge-run"],
        ["wave", "--scenario", "free-boosted", "--points", "5000000"],
        ["sample", "--theta", "1", "--count", str(10**17)],
        ["ensemble", "--n", str(10**17)],
        # an unknown field variant is rejected at load, before --out is created
        ["wave", "--scenario", "INI:dipole"],
        # a name or tag that is not one path component would write outside --out
        ["run", "--scenario", "INI:escaping-name"],
        ["sample", "--theta", "1", "--count", "10", "--tag", "a/b"],
        ["sample", "--theta", "1", "--count", "10", "--tag", ".."],
        ["sample", "--theta", "1", "--count", "10", "--seed", "-1"],
        ["ensemble", "--n", "10", "--seed", "-1"],
        # an output directory that names an existing file
        ["sample", "--theta", "1", "--count", "10", "--out", "FILE"],
        ["sample", "--theta", "1", "--count", "10", "--out", "FILE/sub"],
        ["ZSIM_OUT_DIR=FILE", "sample", "--theta", "1", "--count", "10"],
        # sizes past 2**53 (bins**3 cells for --bins), where numpy raises
        # ValueError rather than MemoryError
        ["sample", "--theta", "0.3", "--phi", "0.1", "--count", str(10**19)],
        ["ensemble", "--n", str(10**19)],
        ["sample", "--theta", "0.3", "--phi", "0.1", "--count", str(2**63 - 1)],
        ["ensemble", "--n", "1000", "--bins", "3000000"],
        ["run", "--scenario", "INI:typo-key"],
        ["run", "--scenario", "INI:typo-section"],
        ["run", "--scenario", "INI:typo-tolerance"],
        ["run", "--scenario", "INI:default-section"],
        # --points past int64, where np.linspace would raise IndexError or ValueError
        ["wave", "--scenario", "free-boosted", "--points", "9223372036854775808"],
        ["wave", "--scenario", "free-boosted", "--points", "99999999999999999999999"],
        # start phases past 2**51 over the box: w0 tau0 overflows, or keeps no zitter phase
        ["ensemble", "--box", "1e308", "--n", "10"],
        ["ensemble", "--flow", "corrupted", "--box", "1e200", "--n", "10"],
        # the identity batteries read no scenario, so a given one would be ignored
        ["verify", "--suite", "identities", "--scenario", "/nonexistent.ini"],
        ["wave", "--scenario", "free-rest", "--points", "1"],
        # a seed too large for a float
        ["sample", "--theta", "1", "--count", "10", "--seed", "9" * 400],
        ["run", "--scenario", "INI:bad-b0"],
        ["wave", "--scenario", "INI:far-origin"],
        # bins a few ulps of the end coordinates wide: rounding, not the flow, sets the counts
        ["ensemble", "--box", "3e-13"],
        ["ensemble", "--box", "1e-14"],
        ["ensemble", "--flow", "corrupted", "--box", "1e-13"],
    ],
)
def test_bad_input_exits_2_with_one_error_line(tmp_path, monkeypatch, argv):
    """Rejected input: exit 2, one error line, and no output directory or artifact."""
    a_file = tmp_path / "a-file"
    a_file.write_text("")
    argv = [a.replace("FILE", str(a_file)) for a in argv]
    if argv[0].startswith("ZSIM_OUT_DIR="):
        monkeypatch.setenv("ZSIM_OUT_DIR", argv.pop(0).partition("=")[2])
    elif "--out" not in argv:
        argv += ["--out", str(tmp_path / "out" / "a" / "b")]
    if argv[2].startswith("INI:"):
        path = tmp_path / "bad.ini"
        path.write_text(_BAD_INI[argv[2][4:]])
        argv[2] = str(path)
    rc, stderr = _main_outcome(argv)
    assert rc == EXIT_USAGE
    assert len(_error_lines(stderr)) == 1, stderr
    assert {p.name for p in tmp_path.iterdir()} <= {"bad.ini", "a-file"}, \
        "a rejected run creates no output directory and writes nothing"
    assert a_file.read_text() == ""


def test_run_says_why_it_fails(tmp_path, capsys):
    """A run over its drift tolerance exits 1 with one FAIL line naming the check."""
    path = tmp_path / "strict.ini"
    path.write_text("[tolerances]\ndrift = 1e-300\n[run]\nperiods = 0.01\n")
    rc = main(["run", "--scenario", str(path), "--out", str(tmp_path / "out")])
    assert rc == EXIT_FAIL
    lines = [line for line in capsys.readouterr().out.splitlines() if line.startswith("FAIL")]
    assert len(lines) == 1 and lines[0].startswith("FAIL drift[position]: "), lines


def test_overflowing_residuals_exit_1_with_one_error_line(tmp_path):
    """Finite states whose residuals overflow are a divergence, not a NaN summary."""
    path = tmp_path / "huge-field.ini"
    path.write_text("[scenario]\nformulation = spinor\n[field]\nvariant = uniform\n"
                    "b0 = 0 0 1e16\n[run]\nsteps_per_period = 1000\nperiods = 0.001\n"
                    "record_every = 1\n")
    out = tmp_path / "out"
    rc, stderr = _main_outcome(["run", "--scenario", str(path), "--out", str(out)])
    assert rc == EXIT_FAIL
    assert _error_lines(stderr) == [stderr.strip()], stderr
    assert "diverged" in stderr
    assert not out.exists(), "a diverged run creates no output directory and writes no summary"


_angle = st.sampled_from(["0", "pi", "pi/3", "-pi/2", "2*pi/3"]) | st.floats(-10, 10).map(repr)
_field_value = (st.floats(-1e-2, 1e-2) | st.floats(allow_nan=False)).map(repr)
_vector3 = st.lists(_field_value, min_size=3, max_size=3).map(" ".join)
# one INI value replaced by a malformed, non-finite or out-of-range one; finite
# values stay within [-1, 1] so that a replaced run length keeps runs short
_bad_value = (st.sampled_from(["nan", "inf", "-inf", "0", "-1", "1e999", "pi/0", "abc",
                               "nan 0 0", "0 inf 0", "1 1 1", "2 0 0 0", ""])
              | st.floats(-1.0, 1.0).map(repr))
_KEYS = [("field", "e0"), ("field", "b0"), ("field", "z"), ("initial", "theta"),
         ("initial", "phi"), ("initial", "phase"), ("initial", "velocity"),
         ("initial", "origin"), ("run", "periods"), ("run", "steps_per_period"),
         ("run", "record_every"), ("run", "charge"), ("tolerances", "drift")]


@given(
    verb=st.sampled_from(["run", "verify", "compare"]),
    formulation=st.sampled_from(["position", "spintensor", "spinor", "all"]),
    variant=st.sampled_from(["free", "uniform", "coulomb"]),
    e0=_vector3,
    b0=_vector3,
    z=_field_value,
    angles=st.lists(_angle, min_size=3, max_size=3),
    velocity=st.lists(st.floats(-1.2, 1.2), min_size=3, max_size=3).map(
        lambda v: " ".join(map(repr, v))),
    periods=st.floats(0.02, 0.05),
    steps_per_period=st.integers(50, 200),
    record_every=st.integers(1, 3),
    override=st.none() | st.tuples(st.sampled_from(_KEYS), _bad_value),
)
@settings(max_examples=100, deadline=None)
def test_fuzz_main_never_tracebacks(verb, formulation, variant, e0, b0, z, angles, velocity,
                                    periods, steps_per_period, record_every, override):
    """Any INI value runs, fails a gate (1) or is a usage error (2) with one line."""
    sections = {
        "scenario": {"name": "fuzz", "formulation": formulation},
        "field": {"variant": variant, "e0": e0, "b0": b0, "z": z, "center": "0 0 0"},
        "initial": {"theta": angles[0], "phi": angles[1], "phase": angles[2],
                    "velocity": velocity, "origin": "0 3 0 0"},
        "run": {"periods": repr(periods), "steps_per_period": str(steps_per_period),
                "record_every": str(record_every)},
        "tolerances": {},
    }
    if override is not None:
        (section, key), value = override
        sections[section][key] = value
    ini = "".join(f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in body.items())
                  for name, body in sections.items())
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.ini"
        path.write_text(ini)
        rc, stderr = _main_outcome([verb, "--scenario", str(path), "--out", tmp])
    assert rc in (EXIT_OK, EXIT_FAIL, EXIT_USAGE)
    assert "Traceback" not in stderr
    if rc == EXIT_USAGE:
        assert len(_error_lines(stderr)) == 1, stderr


def test_compare_needs_multiple_formulations(tmp_path):
    rc = main(["compare", "--scenario", "uniform-b-cyclotron", "--out", str(tmp_path)])
    assert rc == EXIT_USAGE


def test_emit_selected_columns(tmp_path, capsys):
    rc = main(
        ["emit", "x1", "residuals", "--scenario", "free-boosted",
         "--formulation", "position", "--out", str(tmp_path)]
    )
    assert rc == EXIT_OK
    path = tmp_path / "free-boosted-position-emit.csv"
    assert str(path) in capsys.readouterr().out
    cols = read_csv(path)
    assert list(cols) == ["tau", "x1", "res_c1", "res_c2", "res_c3", "res_g"]
    assert np.abs(cols["res_c1"]).max() < 1e-10


def test_emit_unknown_column_usage_error(tmp_path):
    rc = main(
        ["emit", "warp", "--scenario", "free-rest", "--formulation", "position",
         "--out", str(tmp_path)]
    )
    assert rc == EXIT_USAGE


def test_sample_writes_report(tmp_path, capsys):
    rc = main(
        ["sample", "--theta", "pi/2", "--count", "100000", "--seed", "0",
         "--tag", "halfpi", "--out", str(tmp_path)]
    )
    assert rc == EXIT_OK
    payload = json.loads((tmp_path / "sample-halfpi.json").read_text())
    assert payload["n_up"] == 50250
    assert payload["p_up_theory"] == pytest.approx(0.5)
    assert abs(payload["z_score"]) < 3
    out = capsys.readouterr().out
    assert "p_hat=0.50250" in out
    assert "PASS sample[z]: 1.581e+00 <= 5.000e+00" in out.splitlines()
    # antiparallel unit axes: n.m rounds below -1, the probability must not go negative
    rc = main(
        ["sample", "--theta", "3*pi/5", "--device-theta", "2*pi/5", "--device-phi", "pi",
         "--count", "10", "--tag", "anti", "--out", str(tmp_path)]
    )
    assert rc == EXIT_OK
    payload = json.loads((tmp_path / "sample-anti.json").read_text())
    assert payload["p_up_theory"] == 0.0 and payload["z_score"] == 0.0


def test_sample_bad_angle_usage_error(tmp_path):
    rc = main(["sample", "--theta", "sideways", "--out", str(tmp_path)])
    assert rc == EXIT_USAGE


def test_ensemble_free_and_corrupted(tmp_path, capsys):
    rc = main(
        ["ensemble", "--flow", "free", "--n", "20000", "--periods", "2",
         "--bins", "8", "--seed", "0", "--out", str(tmp_path)]
    )
    assert rc == EXIT_OK
    free = json.loads((tmp_path / "ensemble-free-0.json").read_text())
    assert free["pass"] is True and free["uniform"] is True

    rc = main(
        ["ensemble", "--flow", "corrupted", "--n", "20000", "--periods", "2",
         "--bins", "8", "--seed", "0", "--out", str(tmp_path)]
    )
    assert rc == EXIT_OK, "corrupted flow should be detected as non-uniform"
    bad = json.loads((tmp_path / "ensemble-corrupted-0.json").read_text())
    assert bad["pass"] is True and bad["uniform"] is False
    assert bad["chi2"] > 10 * bad["dof"]
    out = capsys.readouterr().out
    assert out.count("PASS ensemble") == 2


def test_ensemble_box_floor_keeps_the_free_flow_uniform(tmp_path, capsys):
    """At the default --n and --bins the smallest accepted --box holds k = (n^2 /
    (2 dof))^(1/4) ulps of the end bound per bin, and there the free flow passes
    and the negative control still fails; just below it ensemble exits 2."""
    # end bound of the default state: 2 + 10 periods of 2 pi / w0 at |drift| + |(a, b)|
    # = 0.98 + 1.72 along x1, 76.8, whose ulp is 2^-46
    floor = 16 * 2.0**-46 * (100_000**2 / (2 * (16**3 - 1))) ** 0.25
    below = ["ensemble", "--box", repr(floor * (1 - 1e-15)), "--out", str(tmp_path / "below")]
    rc, stderr = _main_outcome(below)
    assert rc == EXIT_USAGE and len(_error_lines(stderr)) == 1, stderr
    assert not (tmp_path / "below").exists()
    for flow, seed in (("free", "0"), ("free", "1"), ("corrupted", "0")):
        rc = main(["ensemble", "--flow", flow, "--seed", seed, "--box", repr(floor),
                   "--out", str(tmp_path)])
        assert rc == EXIT_OK, (flow, seed)
        report = json.loads((tmp_path / f"ensemble-{flow}-{seed}.json").read_text())
        assert report["uniform"] is (flow == "free"), (flow, seed, report["p_value"])
    assert capsys.readouterr().out.count("PASS ensemble") == 3


def test_ensemble_corrupted_cost_does_not_grow_with_periods(tmp_path):
    """The corrupted flow is a closed form: the largest accepted span is
    one evaluation, not 50 RK4 steps per period."""
    src = str(Path(zsim.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "zsim.cli", "ensemble", "--flow", "corrupted",
         "--periods", "1e12", "--n", "10", "--out", str(tmp_path)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert proc.returncode in (EXIT_OK, EXIT_FAIL), proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 1 and re.match(r"(PASS|FAIL) ensemble\[corrupted\]: ", lines[0])


def test_unknown_scenario_usage_error(tmp_path):
    rc = main(["run", "--scenario", "not-a-preset", "--out", str(tmp_path)])
    assert rc == EXIT_USAGE


@pytest.mark.parametrize("content", [b"velocity = 0.1 0 0\n", b"[run]\nperiods\n",
                                     b"\xff[run]\n"])
def test_malformed_ini_exits_2_on_one_stderr_line(tmp_path, content):
    """A file with no section header, a key with no '=', or bytes that are
    not UTF-8: exit 2 and one stderr line that names the file."""
    ini = tmp_path / "malformed.ini"
    ini.write_bytes(content)
    rc, stderr = _main_outcome(["run", "--scenario", str(ini), "--out", str(tmp_path)])
    assert rc == EXIT_USAGE
    assert len(stderr.splitlines()) == 1 and str(ini) in stderr, stderr


def test_scenario_file_accepted(tmp_path, capsys):
    ini = tmp_path / "tiny.ini"
    ini.write_text(
        """
[scenario]
name = tiny
formulation = spintensor
[run]
periods = 1
steps_per_period = 200
record_every = 20
"""
    )
    rc = main(["run", "--scenario", str(ini), "--out", str(tmp_path)])
    assert rc == EXIT_OK
    assert (tmp_path / "tiny-spintensor.csv").is_file()
