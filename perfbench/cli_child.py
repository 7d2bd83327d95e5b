"""Traced CLI child for the cli_pipeline part of the construct_cli workload.

    python3 perfbench/cli_child.py <toricmld command and options>

Imports ``toricmld.cli``, installs the benchmark's span wrappers (which
must happen inside the child), runs ``toricmld.cli.main`` on the given
arguments and writes one JSON line to stderr with the monotonic-clock
timestamps of the import and of ``main`` and the span aggregates.
"""

import time

ENTRY = time.monotonic_ns()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from tracer import Tracer  # noqa: E402


def main() -> int:
    import_start = time.monotonic_ns()
    import toricmld.cli as cli

    imported = time.monotonic_ns()
    tracer = Tracer()
    tracer.install()
    main_start = time.monotonic_ns()
    try:
        code = cli.main(sys.argv[1:])
    finally:
        main_end = time.monotonic_ns()
        tracer.uninstall()
    sys.stdout.flush()
    report = {
        "entry": ENTRY,
        "import_start": import_start,
        "imported": imported,
        "main_start": main_start,
        "main_end": main_end,
        "trace": tracer.snapshot(),
    }
    report["exit"] = time.monotonic_ns()
    sys.stderr.write(json.dumps(report) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
