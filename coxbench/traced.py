"""Run one coxcov command with the tracer installed.

    python3 coxbench/traced.py --out SPANS.json --run-id ID -- <coxcov args>

The command's standard output and exit code are those of ``coxcov``;
the spans and counters go to SPANS.json when the command ends.
"""

from __future__ import annotations

import argparse
import sys

from tracer import Tracer


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", required=True)
    ap.add_argument("--run-id", required=True)
    ap.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = ap.parse_args()
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] \
        else args.cli_args
    tracer = Tracer(args.run_id)
    tracer.install()
    from coxcov import cli
    try:
        return cli.main(cli_args)
    finally:
        tracer.uninstall()
        tracer.write(args.out)


if __name__ == "__main__":
    sys.exit(main())
