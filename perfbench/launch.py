"""Run the qmsderiv command line with the benchmark's spans installed.

    python3 perfbench/launch.py SPANS_OUT OP_LABEL <qmsderiv arguments...>

Times a fresh ``import qmsderiv``, wraps the package's public functions
(see tracing.py), runs ``qmsderiv.cli.main`` on the remaining arguments and
writes the spans to SPANS_OUT before exiting with the command's status.
"""

import sys
import time

t0 = time.perf_counter()
import qmsderiv  # noqa: E402  (the import is what is being timed)
import_s = time.perf_counter() - t0

from tracing import Tracer  # noqa: E402


def main():
    out, label, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    tracer = Tracer()
    tracer.op = label
    tracer.install()
    from qmsderiv import cli
    try:
        return cli.main(argv)
    finally:
        tracer.dump(out, import_s)


if __name__ == "__main__":
    sys.exit(main())
