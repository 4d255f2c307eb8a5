"""Run one `pseudosusp` command as `python -m pseudosusp` would.

Usage: launch.py READY_FILE TRACE_FILE ARGS...

Writes the monotonic clock reading at which `pseudosusp.cli` is imported and
ready to READY_FILE.  With TRACE_FILE other than `-`, installs the layer
tracer first and writes its spans and call counts there on exit.
"""

import sys
import time


def main() -> int:
    ready_file, trace_file, *argv = sys.argv[1:]
    import pseudosusp.cli as cli

    with open(ready_file, "w", encoding="utf-8") as fh:
        fh.write(repr(time.monotonic()))
    if trace_file == "-":
        return cli.main(argv)
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        return cli.main(argv)
    finally:
        tracer.dump(trace_file)


if __name__ == "__main__":
    sys.exit(main())
