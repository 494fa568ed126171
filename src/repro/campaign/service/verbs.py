"""The service verbs of ``repro campaign``: ``serve``, ``worker``, ``watch``.

:mod:`repro.cli` dispatches here, passing its experiment runner to
``serve``, which drains every sweep of the experiment through the service.
"""

from __future__ import annotations

import argparse

from repro.campaign.service import status
from repro.campaign.service.runner import ServiceRunner
from repro.campaign.service.server import CampaignService
from repro.campaign.service.worker import run_worker

__all__ = ["serve", "worker", "watch"]


def _parse_endpoint(value: str) -> tuple[str, int]:
    host, sep, port = value.rpartition(":")
    if not sep or not port.isdigit():
        raise SystemExit(f"--connect expects HOST:PORT, got {value!r}")
    return host or "127.0.0.1", int(port)


def serve(args: argparse.Namespace, run_experiment) -> int:
    """``repro campaign serve``: run an experiment as a campaign service."""
    service = CampaignService(
        args.store,
        host=args.host,
        port=args.port,
        status_port=args.status_port,
        lease_ttl=args.lease_ttl,
        requeue_limit=args.requeue_limit,
        local_workers=args.local_workers,
        retries=args.retries,
        timeout_s=args.timeout,
    )
    with service:
        print(
            f"campaign service on {service.host}:{service.port} "
            f"(store {service.store.root}, {args.local_workers} local "
            f"slot(s); attach more with "
            f"`repro campaign worker --connect {service.host}:{service.port}`)"
        )
        if service.status_port is not None:
            print(
                f"live status on http://{service.host}:{service.status_port}"
                f"/status (SSE: /events; "
                f"`repro campaign watch --connect "
                f"{service.host}:{service.status_port}`)"
            )
        return run_experiment(args, runner=ServiceRunner(service))


def worker(args: argparse.Namespace) -> int:
    """``repro campaign worker``: drain a service's points over TCP."""
    host, port = _parse_endpoint(args.connect)
    stats = run_worker(
        host,
        port,
        worker_id=args.worker_id,
        retries=args.retries,
        timeout_s=args.timeout,
        max_points=args.max_points,
        exit_when_done=not args.stay,
    )
    print(
        f"worker drained: {stats['points_done']} point(s) done, "
        f"{stats['points_failed']} failed, {stats['claims']} lease(s)"
    )
    return 0


def watch(args: argparse.Namespace) -> int:
    """``repro campaign watch``: stream a service's live status."""
    host, port = _parse_endpoint(args.connect)
    failed = status.watch(
        host, port, interval_s=args.interval, max_updates=args.max_updates
    )
    return 1 if failed else 0
