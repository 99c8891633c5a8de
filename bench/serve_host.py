"""Host process for the serve workloads: one ReproService, driven over stdin.

    python bench/serve_host.py --flight-dir DIR

Boots the service on an ephemeral port with the product's default
configuration, except that flight dumps go to ``DIR`` (the run's own
temporary directory), and prints ``{"port": N}`` once it listens.  The
benchmark client then controls it with one command per stdin line; each
command is answered with one JSON line on stdout:

``trace on`` / ``trace off``
    Install or remove the layer timing wrappers (between request blocks).
``stats``
    This process's CPU time and peak RSS, and the layer totals so far.

End of input stops the service and ends the process.  The run ledger is
disabled, so a benchmark run leaves no records behind.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import resource
import sys
import threading
from time import process_time


def _stats(tracer) -> dict:
    return {
        "cpu_s": process_time(),
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "layers": tracer.totals(),
        "offthread_ms": tracer.offthread_ms,
    }


async def serve(flight_dir: str) -> None:
    from layers import LayerTracer
    from repro.serve.service import ReproService, ServeConfig

    tracer = LayerTracer()
    service = ReproService(ServeConfig(port=0, flight_dir=flight_dir))
    await service.start()
    loop = asyncio.get_running_loop()

    def command(line: str) -> None:
        # Runs on the loop thread, between requests, so no call is ever
        # half-wrapped.
        if line == "trace on":
            tracer.install()
            reply: dict = {"ok": True}
        elif line == "trace off":
            tracer.uninstall()
            reply = {"ok": True}
        elif line == "stats":
            reply = _stats(tracer)
        else:
            reply = {"error": f"unknown command {line!r}"}
        print(json.dumps(reply), flush=True)

    def read_commands() -> None:
        for raw in sys.stdin:
            loop.call_soon_threadsafe(command, raw.strip())
        loop.call_soon_threadsafe(service.request_stop)

    print(json.dumps({"port": service.port}), flush=True)
    reader = threading.Thread(target=read_commands, name="bench-commands", daemon=True)
    reader.start()
    try:
        await service.run_until_stopped()
    finally:
        await service.close()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--flight-dir", required=True)
    args = parser.parse_args(argv)
    os.environ["REPRO_LEDGER"] = "0"
    asyncio.run(serve(args.flight_dir))
    return 0


if __name__ == "__main__":
    sys.exit(main())
