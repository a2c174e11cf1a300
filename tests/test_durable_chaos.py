"""The pool's hung-worker watchdog in vitro: heartbeats, leases, and the
stuck/slow distinction.  The kill-anywhere storm itself is in
``tests/test_chaos.py``.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.farm.pool import run_tasks


# ------------------------------------------------ pool watchdog in vitro


def _sleepy(payload):
    time.sleep(payload)
    return payload


def test_pool_slow_worker_keeps_lease():
    """A *slow* worker still heartbeats — the lease watchdog must leave
    it alone (the stuck/slow distinction the design leans on)."""
    beats = []
    results = run_tasks(_sleepy, [1.2], jobs=2, lease_s=0.6,
                        heartbeat_s=0.2,
                        on_heartbeat=lambda i: beats.append(i))
    assert results == [1.2]
    assert beats   # liveness was proven, not assumed


def test_pool_heartbeats_reach_the_parent():
    events = []
    lock = threading.Lock()

    def on_heartbeat(index):
        with lock:
            events.append(index)

    results = run_tasks(_sleepy, [0.7, 0.7], jobs=2, lease_s=2.0,
                        heartbeat_s=0.1, on_heartbeat=on_heartbeat)
    assert results == [0.7, 0.7]
    assert set(events) == {0, 1}


def test_pool_lease_requires_heartbeat_configured():
    from repro.errors import ConfigurationError

    with pytest.raises(ConfigurationError):
        run_tasks(_sleepy, [0.1], jobs=2, lease_s=1.0)
