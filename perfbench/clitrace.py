"""Run one operadkit command with the tracer installed.

    python3 perfbench/clitrace.py DUMP.json <operadkit arguments...>

The traced cli-session runs each command this way instead of
``python3 -m operadkit.cli``; the spans and counts of the process are
written to DUMP.json before it exits with the command's exit code.
"""

import json
import sys
from time import perf_counter

from tracer import Tracer


def main() -> int:
    dump_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    start = perf_counter()
    from operadkit import cli
    tracer.spans.append(["cli.import", start, perf_counter(), -1, 0])
    tracer.install()
    tracer.begin_job(0, "command")
    code = 0
    try:
        tracer.wrap_cli(cli.main)(args=argv, prog_name="operadkit")
    except SystemExit as ex:
        code = ex.code if isinstance(ex.code, int) else (0 if ex.code is None else 1)
    finally:
        tracer.end_job()
        with open(dump_path, "w") as fh:
            json.dump(tracer.dump(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
