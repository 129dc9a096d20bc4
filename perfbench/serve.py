"""Run one PreferenceServer in its own process, as a deployment would.

Usage: ``python3 perfbench/serve.py --database PATH --connections N
--timeout-ms T [--trace]`` with ``src`` on ``PYTHONPATH``.  The process
prints ``{"port": P}`` once the server accepts connections, then reads
control lines on standard input, answering each with ``ok``:

* ``reset`` — forget the spans and counters recorded so far,
* ``dump PATH`` — write the recorded spans and counters to ``PATH``,
* ``stop`` (or end of input) — stop the server and exit.

With ``--trace`` the layer wrappers of :mod:`wrappers` are installed
before the server opens its pool; without it the server runs untouched.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys


async def serve(args: argparse.Namespace) -> None:
    recorder = registry = None
    if args.trace:
        from spans import Recorder
        from wrappers import VM_TICK, install

        recorder = Recorder()
        registry = install(recorder)
    from repro.server import PreferenceServer

    server = PreferenceServer(
        args.database,
        pool_size=args.connections,
        max_inflight=args.connections,
        default_timeout_ms=args.timeout_ms,
    )
    await server.start()
    loop = asyncio.get_running_loop()
    try:
        print(json.dumps({"port": server.port}), flush=True)
        while True:
            command = (await loop.run_in_executor(None, sys.stdin.readline)).split()
            if not command or command[0] == "stop":
                break
            if recorder is not None and command[0] == "reset":
                recorder.reset()
                for connection in registry:
                    connection.vm_ticks = 0
            elif recorder is not None and command[0] == "dump":
                record = recorder.snapshot()
                record["vm_kinstr"] = (
                    sum(c.vm_ticks for c in registry) * VM_TICK / 1000.0
                )
                with open(command[1], "w", encoding="utf-8") as handle:
                    json.dump(record, handle)
            print("ok", flush=True)
    finally:
        await server.stop()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--database", required=True)
    parser.add_argument("--connections", type=int, required=True)
    parser.add_argument("--timeout-ms", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    asyncio.run(serve(parser.parse_args()))


if __name__ == "__main__":
    main()
