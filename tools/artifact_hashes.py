"""Hash the artifacts of a fixed list of zsim CLI calls.

Usage (from a checkout, with its ``src`` on the path):

    PYTHONPATH=src python3 tools/artifact_hashes.py OUTDIR

Each call runs through ``zsim.cli.main`` in its own directory under
OUTDIR.  The INI scenarios below, written to OUTDIR first, cover what no
preset uses: raw initial vectors, signed-zero momenta of a positive
charge (also in a field with zero components), a zitter phase, an origin
and an electric field, and a step too coarse for RK4 (the position and
spin-tensor runs diverge).
``OUTDIR/SHA256SUMS`` then holds, per call, one ``exit <code>`` line
naming the call and its ``error:`` line, if any (so the divergence tau
is compared too), and one ``<sha256>  <path>`` line per artifact, with
paths relative to OUTDIR.  ``tools/SHA256SUMS`` is the committed
reference, made with Python 3.11.7 and numpy 2.4.6 on x86_64 (libm may
move last bits on other hosts).  ``diff tools/SHA256SUMS OUTDIR/SHA256SUMS``
then shows which artifact bytes and exit codes changed; a change that
moves bytes on purpose commits the new file.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import re
import sys
from pathlib import Path

from zsim.cli import main

PRESETS = ("free-rest", "free-boosted", "uniform-b-weak", "uniform-b-cyclotron",
           "uniform-b-precession", "coulomb-orbit")
COMPARED = ("free-rest", "free-boosted", "uniform-b-weak")  # formulation = all
NEGATIVE = ["--no-validate", "--corrupt-momentum", "0.01"]
EMITTED = ("free-boosted", "uniform-b-weak", "coulomb-orbit")
EMIT_COLUMNS = {"position": ["x1", "u0"], "spintensor": ["x1", "s1"], "spinor": ["x1", "u0"]}
INIS = {
    # the valid raw state of tests/test_scenario.py::test_raw_initial_mode
    "raw-all.ini": """[scenario]
name = raw-all
formulation = all
[initial]
mode = raw
x = 0 0 -0.5 0
u = 1 1 0 0
y = 0 0 0 0
pi = 1 0 0 0
[run]
periods = 2
""",
    # raw-all with signed-zero spatial momenta and a positive charge, whose
    # free-field force rounds to +0.0 and so turns the -0.0 momenta into +0.0
    "raw-positron.ini": """[scenario]
name = raw-positron
formulation = all
[initial]
mode = raw
x = 0 0 -0.5 0
u = 1 1 0 0
y = 0 0 0 0
pi = 1 -0 -0 -0
[run]
periods = 2
charge = 1
""",
    # raw-positron in a uniform b along x3: no field term reaches pi^0 or the
    # signed-zero pi^3, and pi^1's one b3 term is exactly zero at the start (u2 = 0);
    # the position run's constraints drift in a field, so it exits 1
    "raw-positron-bz.ini": """[scenario]
name = raw-positron-bz
formulation = all
[field]
variant = uniform
b0 = 0 0 1e-3
[initial]
mode = raw
x = 0 0 -0.5 0
u = 1 1 0 0
y = 0 0 0 0
pi = 1 -0 -0 -0
[run]
periods = 2
charge = 1
""",
    "phased-e0.ini": """[scenario]
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
""",
    # two steps per period is past RK4's stability limit for the zitter motion
    "diverging.ini": """[scenario]
name = diverging
[initial]
theta = pi/3
phi = 0.4
velocity = 0.3 0 0.1
[run]
steps_per_period = 2
periods = 400
record_every = 1
""",
}


def calls() -> list[list[str]]:
    out = []
    for preset in PRESETS:
        for f in ("position", "spintensor", "spinor"):
            out.append(["run", "--scenario", preset, "--formulation", f])
    for preset in COMPARED:
        for jobs in ("1", "2"):
            out.append(["compare", "--scenario", preset, "--jobs", jobs])
            out.append(["compare", "--scenario", preset, "--jobs", jobs, *NEGATIVE])
    for preset in EMITTED:
        for f, cols in EMIT_COLUMNS.items():
            out.append(["emit", *cols, "residuals", "--scenario", preset, "--formulation", f])
    out.append(["sample", "--theta", "pi/3", "--count", "100000", "--seed", "0"])
    out.append(["sample", "--theta", "pi/2", "--device-theta", "pi/4", "--seed", "1",
                "--tag", "tilted"])
    for flow in ("free", "corrupted"):
        out.append(["ensemble", "--flow", flow, "--seed", "0"])
    # the corrupted flow where the zitter phase winds (the default velocity locks it),
    # with a partial last block of particles
    out.append(["ensemble", "--flow", "corrupted", "--velocity", "0.3 0.1 0", "--n", "20000",
                "--periods", "2", "--bins", "8", "--seed", "3"])
    # an ensemble at rest, where no boost is applied
    out.append(["ensemble", "--flow", "free", "--velocity", "0 0 0", "--n", "20000",
                "--periods", "2", "--bins", "8", "--seed", "5"])
    out.append(["wave", "--scenario", "free-boosted"])
    out.append(["wave", "--scenario", "free-boosted", "--axes", "x1 x3"])
    for ini in ("raw-all.ini", "phased-e0.ini"):
        out.append(["run", "--scenario", ini])
        out.append(["compare", "--scenario", ini])
    for f in ("position", "spintensor", "spinor"):
        out.append(["run", "--scenario", "diverging.ini", "--formulation", f])
    out.append(["run", "--scenario", "raw-positron.ini"])
    out.append(["run", "--scenario", "raw-positron-bz.ini"])
    # verify writes no artifact: its exit code gates the identity batteries
    # and a field scenario's drift and equivalence tolerances
    out.append(["verify", "--suite", "identities"])
    out.append(["verify", "--scenario", "uniform-b-weak"])
    return out


def _slug(k: int, argv: list[str]) -> str:
    return f"{k:02d}-" + re.sub(r"[^A-Za-z0-9.]+", "_", " ".join(argv)).strip("_")


def main_hashes(outdir: Path) -> int:
    lines = []
    outdir.mkdir(parents=True, exist_ok=True)
    for name, text in INIS.items():
        (outdir / name).write_text(text)
    for k, argv in enumerate(calls()):
        where = outdir / _slug(k, argv)
        where.mkdir(parents=True, exist_ok=True)
        # INI paths resolve in OUTDIR but stay relative in SHA256SUMS
        resolved = [str(outdir / a) if a in INIS else a for a in argv]
        stderr = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            rc = main([*resolved, "--out", str(where)])
        errors = [e for e in stderr.getvalue().splitlines() if e.startswith("error:")]
        lines.append("  ".join([f"exit {rc}", " ".join(argv), *errors]))
        print(lines[-1], flush=True)
        for path in sorted(p for p in where.rglob("*") if p.is_file()):
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            lines.append(f"{digest}  {path.relative_to(outdir)}")
    (outdir / "SHA256SUMS").write_text("\n".join(lines) + "\n")
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: artifact_hashes.py OUTDIR")
    sys.exit(main_hashes(Path(sys.argv[1])))
