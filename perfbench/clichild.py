"""Traced stand-in for `python -m coxfree`, used by the cli workload's
traced pass.  Wraps the traced functions, calls coxfree.cli.run with the
given arguments, and writes the aggregates to $PERFBENCH_TRACE_OUT.
An uncaught exception prints its traceback and exits 1, as the
interpreter does for `python -m coxfree`.
"""

import os
import sys
import traceback

import tracer  # perfbench/ is on sys.path as the script directory

import coxfree.cli  # noqa: E402  (src/ comes from PYTHONPATH)


def main():
    tr = tracer.Tracer()
    tr.install()
    try:
        code = coxfree.cli.run(sys.argv[1:])
    except Exception:
        traceback.print_exc()
        code = 1
    finally:
        tr.dump(os.environ["PERFBENCH_TRACE_OUT"])
    return code


if __name__ == "__main__":
    sys.exit(main())
