"""Run one rootstrings CLI command with the tracer installed, and write the
tracer's state to a JSON file for the parent benchmark to merge.

    python bench/traced_cli.py STATE_FILE REQUEST_ID -- ARGS...
"""

import json
import sys
import time

import tracing


def main() -> int:
    state_path, request = sys.argv[1], int(sys.argv[2])
    argv = sys.argv[sys.argv.index("--") + 1:]
    tracer = tracing.Tracer()
    tracer.request = request
    t0 = time.perf_counter()
    import rootstrings.cli
    tracer.record_span("cli.import", t0, time.perf_counter())
    tracer.install()
    try:
        return rootstrings.cli.main(argv)
    finally:
        tracer.uninstall()
        with open(state_path, "w", encoding="utf-8") as out:
            json.dump(tracer.state(), out)


if __name__ == "__main__":
    sys.exit(main())
