"""Run one ``zsim`` CLI invocation with the benchmark's spans or rhs counts.

Usage: python3 launch.py SPANS_JSON ZSIM_ARGS...
       python3 launch.py --count-rhs COUNTS_JSON ZSIM_ARGS...

The first form imports ``zsim.cli`` inside a ``cli.import`` span, wraps
the traced functions (see tracer.py), runs ``zsim.cli.main(ZSIM_ARGS)``
inside a ``cli.main`` span and writes the spans to SPANS_JSON once at
exit.  The traced cli-session rounds start their children through this
form instead of ``python -m zsim.cli``.  The second form counts the rhs
evaluations of this process (see ``tracer.count_rhs``) and writes the
counts per formulation to COUNTS_JSON.  Both exit with main's return
code.
"""

import importlib
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracer  # noqa: E402  (needs the path above)


def count(counts_path: str, argv: list[str]) -> int:
    cli = importlib.import_module("zsim.cli")
    with tracer.count_rhs() as counts:
        rc = cli.main(argv)
    Path(counts_path).write_text(json.dumps(counts))
    return rc


def main() -> int:
    if sys.argv[1] == "--count-rhs":
        return count(sys.argv[2], sys.argv[3:])
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tr = tracer.Tracer()
    tr.new_op()
    rc = 1
    try:
        with tr.span("cli.import"):
            cli = importlib.import_module("zsim.cli")
        tracer.install(tr)
        with tr.span("cli.main", verb=argv[0] if argv else ""):
            rc = cli.main(argv)
    finally:
        Path(spans_path).write_text(json.dumps(tr.spans))
    return rc


if __name__ == "__main__":
    sys.exit(main())
