"""Run ``smoothnorm run ...`` in this process and write its layer timings.

    python3 perfbench/cli_child.py --timing OUT.json [--trace --op NAME] \
        -- run CONFIG --suite all ...

With ``--trace`` every layer is wrapped; without it nothing is.  The
counters and spans go to OUT.json, the spans tagged with the operation
NAME; the exit code is the CLI's.
"""

import argparse
import json
import sys
from pathlib import Path

from tracer import Tracer


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--timing", required=True)
    parser.add_argument("--op", default="")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] \
        else args.cli_args

    from smoothnorm import cli
    tracer = Tracer()
    tracer.op = args.op
    if args.trace:
        tracer.install()
    try:
        code = cli.main(cli_args)
    finally:
        tracer.restore()
    Path(args.timing).write_text(json.dumps({"exit_code": code,
                                             **tracer.dump()}))
    return code


if __name__ == "__main__":
    sys.exit(main())
