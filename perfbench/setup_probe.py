"""Fresh-process readiness probe: the work timed as ``setup_s``.

Run as ``python3 perfbench/setup_probe.py [--service]`` with ``src`` on
``PYTHONPATH``.  It imports ``repro``, resolves the compiled provider and
loads its kernel -- and with ``--service`` also starts the daemon, its
result store and the HTTP gateway and waits for ``/healthz`` -- then prints
``ready`` and tears everything down.  The parent times spawn-to-``ready``.
"""

from __future__ import annotations

import sys


def main() -> int:
    import repro  # noqa: F401
    from repro.engines.compiled.providers import select_provider

    provider = select_provider()
    if provider is None:
        print("no compiled provider available", file=sys.stderr)
        return 1
    provider.kernel()
    if "--service" in sys.argv[1:]:
        from workloads import start_service, stop_service

        server, daemon, _client, thread, store_dir = start_service()
        print("ready", flush=True)
        stop_service(server, daemon, thread, store_dir)
    else:
        print("ready", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
