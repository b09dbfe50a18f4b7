"""Run one bincues CLI command with every public bincues function traced.

    python3 perfbench/traced_cli.py SPANFILE OP_ID CLI_ARGS...

Exits with the CLI's exit code and writes the spans to SPANFILE.
"""

import sys

import bincues.cli

from tracer import Tracer


def main() -> int:
    span_path, op_id, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    tracer = Tracer()
    tracer.install()
    tracer.op = op_id
    tracer.recording = True
    try:
        return bincues.cli.main(argv)
    finally:
        tracer.recording = False
        tracer.dump(span_path)


if __name__ == "__main__":
    sys.exit(main())
