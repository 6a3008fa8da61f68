"""The ``repro serve`` subcommand: run the asyncio HTTP job server.

Binds a :class:`repro.service.JobServer` on the configured host/port
(``--host``/``--port`` beat ``REPRO_SERVICE_HOST``/``REPRO_SERVICE_PORT``
beat the defaults, the :class:`repro.config.RuntimeConfig` precedence)
and serves until interrupted.  The server dispatches every job through
:func:`repro.api.schedule_many` — the exact batch-runner path — so HTTP
results are byte-identical to local runs and repeated submissions are
result-cache hits.

Usage::

    repro serve --port 8423 --jobs 4
    REPRO_SERVICE_PORT=8423 repro serve
"""

from __future__ import annotations

import argparse
import asyncio
from typing import List, Optional

from repro.config import RuntimeConfig
from repro.runner.batch import BatchScheduler
from repro.runner.cache import CacheSpec
from repro.service.server import JobServer


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="repro serve",
        description="Serve schedule jobs over HTTP through the batch runner.",
    )
    parser.add_argument(
        "--host",
        default=None,
        help="bind address (default: REPRO_SERVICE_HOST or 127.0.0.1)",
    )
    parser.add_argument(
        "--port",
        type=int,
        default=None,
        help="bind port; 0 picks an ephemeral port "
        "(default: REPRO_SERVICE_PORT or 0)",
    )
    parser.add_argument(
        "--jobs",
        default=None,
        help="worker processes that compute cache misses: a count or 'auto' "
        "(default: REPRO_JOBS or 1)",
    )
    parser.add_argument(
        "--max-batch",
        type=int,
        default=None,
        help="max jobs in flight at once (default: worker count)",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="per-job wall-clock timeout in seconds "
        "(default: REPRO_SERVICE_TIMEOUT or none)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the content-addressed result cache (cold computes only)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="result-cache root (default: REPRO_CACHE_DIR or ~/.cache/repro)",
    )
    return parser.parse_args(argv)


def build_server(args: argparse.Namespace) -> JobServer:
    overrides = {}
    if args.host is not None:
        overrides["service_host"] = args.host
    if args.port is not None:
        overrides["service_port"] = args.port
    if args.jobs is not None:
        overrides["jobs"] = args.jobs
    if args.timeout is not None:
        overrides["service_timeout"] = args.timeout
    if args.no_cache:
        overrides["cache"] = "off"
    if args.cache_dir is not None:
        overrides["cache_dir"] = args.cache_dir
    config = RuntimeConfig.load(**overrides)
    runner = BatchScheduler(jobs=config.jobs, timeout=config.service_timeout)
    cache = CacheSpec.from_env(enabled=config.cache)
    if args.cache_dir is not None and config.cache:
        cache = CacheSpec(enabled=True, root=config.cache_dir, salt=cache.salt)
    return JobServer(
        runner=runner, cache=cache, max_batch=args.max_batch, config=config
    )


async def _serve(server: JobServer) -> None:
    await server.start()
    print(f"repro serve: listening on {server.url}", flush=True)
    print(
        f"repro serve: {server.runner.n_workers} worker(s), "
        f"cache {'on at ' + server.cache.root if server.cache.enabled else 'off'}",
        flush=True,
    )
    try:
        await server.serve_forever()
    finally:
        await server.stop()


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    server = build_server(args)
    try:
        asyncio.run(_serve(server))
    except KeyboardInterrupt:
        print("repro serve: interrupted, shutting down", flush=True)
    return 0
