"""Run the ``repro`` command line, optionally with layer spans recorded.

    python3 perfbench/entry.py [--trace-out FILE] -- fabric worker --url ...

Without ``--trace-out`` this is ``python -m repro``.  With it, the same
layer boundaries as the in-process workloads (:mod:`tracing`) are
wrapped, plus one hook that reads each campaign cache's ``counters()``
when its executor closes; the spans are written to FILE when the command
returns (a fabric worker returns after SIGTERM).
"""

from __future__ import annotations

import argparse
import sys

from tracing import Tracer, cache_counts, install_layers


def _after_executor_close(result, args, kwargs):
    return cache_counts(args[0].cache.counters())


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace-out", default=None)
    parser.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv

    from repro.cli import main as repro_main

    if args.trace_out is None:
        return repro_main(argv)
    tracer = Tracer()
    install_layers(tracer)
    tracer.wrap(
        "repro.exec.executor:Executor.close", "exec.close", _after_executor_close
    )
    try:
        return repro_main(argv)
    finally:
        tracer.uninstall()
        tracer.dump(args.trace_out, argv=argv)


if __name__ == "__main__":
    sys.exit(main())
