"""Run one irlv command with every public irlv function traced.

    python3 bench/traced_cli.py SPANS.json roc --config run.cfg --out DIR --jobs 1

Everything after SPANS.json goes to `irlv.cli.main` unchanged.  The span
totals are written to SPANS.json; the exit code is the command's.
"""

import json
import sys

import irlv.cli
from tracer import Tracer, installed


def main(argv) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    with installed(tracer):
        code = irlv.cli.main(cli_args)
    with open(spans_path, "w") as f:
        json.dump(tracer.as_dict(), f, indent=1, sort_keys=True)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
