"""repro.farm: parallel sweep execution with content-addressed memoization.

The paper's evaluation is a grid of independent simulation points — it was
farmed out as "a separate simulator binary per configuration".  This
package is that farm for the reproduction:

* :mod:`repro.farm.pool` — warm forked worker pool with per-task
  timeout, kill-and-replace crash retry, deterministic result ordering,
  and an in-process fallback;
* :mod:`repro.farm.cache` — SHA-256 content-addressed :class:`SimStats`
  cache (atomic, checksummed entries; corruption degrades to a miss);
* :mod:`repro.farm.points` — sweep points as farm tasks;
* :mod:`repro.farm.telemetry` — progress, throughput, hit-rate, and a
  JSON run manifest;
* :mod:`repro.farm.context` — the ambient session that lets
  ``run_point``/``run_sweep``/``repro-experiments`` pick all of this up
  without new plumbing through every experiment;
* :mod:`repro.farm.cli` — the ``repro-farm`` cache-management CLI.

Quickstart::

    from repro.farm import farm_session
    from repro.experiments import run_experiment

    with farm_session(jobs=4):
        result = run_experiment("fig5")   # parallel + memoized
"""

from repro.farm.cache import (
    CACHE_SCHEMA_VERSION,
    ResultCache,
    default_cache_dir,
    point_key,
)
from repro.farm.context import FarmContext, current_context, farm_session
from repro.farm.points import PointSpec, execute_point, run_points
from repro.farm.pool import WorkerPool, fork_available, run_tasks
from repro.farm.telemetry import RunTelemetry

__all__ = [
    "CACHE_SCHEMA_VERSION",
    "ResultCache",
    "default_cache_dir",
    "point_key",
    "FarmContext",
    "current_context",
    "farm_session",
    "PointSpec",
    "execute_point",
    "run_points",
    "WorkerPool",
    "fork_available",
    "run_tasks",
    "RunTelemetry",
]
