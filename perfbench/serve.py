"""Run the ``repro.server`` daemon under the benchmark's control.

Usage: ``python perfbench/serve.py --report FILE [repro.server arguments]``

The daemon itself is the unchanged ``python -m repro.server`` entry point.
This launcher adds a control channel on stdin, read line by line:

* ``trace on`` / ``trace off`` install or remove the entry-point wrappers
  of :mod:`tracer`, so the client can alternate traced and untraced rounds
  against one warm daemon;
* ``gc`` runs the daemon's cyclic collector, which alone frees finished
  simulators, so the client can start every round from the same heap;
* every command is acknowledged on stdout once done;
* end of input shuts the daemon down through its own SIGTERM path, so a
  client that exits or dies never leaves a daemon behind.

After the daemon has drained, ``FILE`` receives every span recorded while
tracing was on.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import signal
import sys
import threading

from tracer import Tracer


def _control(tracer: Tracer) -> None:
    try:
        for line in sys.stdin:
            command = line.strip()
            if command == "trace on":
                tracer.install()
            elif command == "trace off":
                tracer.uninstall()
            elif command == "gc":
                gc.collect()
            else:
                continue
            print(f"perfbench: {command}", flush=True)
    finally:
        # Also on a failed install: the client then sees the daemon exit
        # instead of waiting for an acknowledgement that never comes.
        os.kill(os.getpid(), signal.SIGTERM)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--report", required=True, help="where to write the spans")
    args, server_argv = parser.parse_known_args()

    from repro.server.__main__ import main as server_main

    tracer = Tracer()
    threading.Thread(target=_control, args=(tracer,), daemon=True).start()
    code = server_main(server_argv)
    if tracer.installed:
        tracer.uninstall()
    with open(args.report, "w", encoding="utf-8") as handle:
        json.dump({"spans": tracer.spans}, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
