"""Run one mecshare command with the layer tracer installed and save its totals.

    python3 bench/child.py TOTALS.json <mecshare command and arguments>

The package must be importable (PYTHONPATH).  Exits with the command's code.
"""
import json
import sys

import mecshare.cli
from tracing import Tracer


def main() -> int:
    totals_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    tracer.op = 0
    try:
        code = mecshare.cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        tracer.uninstall()
    with open(totals_path, "w") as fh:
        json.dump(tracer.totals(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
