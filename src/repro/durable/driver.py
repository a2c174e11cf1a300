"""DurableRun: the coordinator-side driver over one run journal.

This is the piece the farm's :func:`~repro.farm.points.run_points` and the
grid's :class:`~repro.grid.GridDispatcher` share.  It owns the WAL
ordering rules so no caller can get them wrong:

* **recovery** (:meth:`begin`) replays the journal, re-validates every
  ``point_done`` against the content-addressed cache (a done record whose
  cache entry is missing or corrupt is demoted back to *todo* — the
  journal asserts control flow, the cache asserts data, and the cache is
  re-checked every resume), reclaims leases whose owner is provably dead
  on this host or whose wall-clock deadline has passed, and hands back
  the surviving work in **input order** — which is what makes a resumed
  report bit-identical to an uninterrupted one;
* **claim** journals the lease *before* the work starts (crash after
  claim → orphan, reclaimed on resume; crash before → never started,
  nothing to recover);
* **done** journals *after* the caller has stored the result in the
  cache (crash between store and done → the done record is missing but
  the cache re-answers instantly on resume; the inverse order would
  record a result that does not exist);
* **budget**: attempts are counted from the journal, across resumes — a
  point that crashes deterministically burns its ``max_point_retries``
  budget over any number of restarts and then fails the run with a clear
  per-point error instead of looping forever.

Exactly-once, precisely: each point's *effect* (one cache entry, one
telemetry count, one slot in the report) happens once even though its
*execution* may happen several times under crashes — the journal
guarantees at most one ``point_done`` per index survives, and the
deterministic simulator guarantees every execution produces the same
bits.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional, Sequence, Union

from repro.errors import FarmError, JournalError
from repro.durable.journal import (PathLike, RunJournal, resolve_journal,
                                   stats_sha256)
from repro.durable.lease import (DurableSettings, LeaseTable, owner_id,
                                 owner_is_dead_local)


class DurableRun:
    """One durable execution of one sweep, backed by a journal + cache.

    Args:
        journal: a :class:`RunJournal`, a journal file path (``.wal`` /
            ``.jsonl`` / ``.journal``), or a journal *directory* (the
            sweep gets a content-addressed file inside it).
        cache: the content-addressed result cache — **required**: the
            journal stores only digests; without the cache a ``done``
            record has nothing durable to point at.
        settings: validated timing/budget knobs.
        registry: optional :class:`repro.obs.metrics.Registry` the
            recovery counters land in (``durable_replayed_points_total``,
            ``durable_reclaimed_leases_total``, ``durable_retries_total``,
            ``durable_watchdog_expired_total``, ``durable_resumes_total``).
    """

    def __init__(self, journal: Union[RunJournal, PathLike], cache,
                 settings: Optional[DurableSettings] = None,
                 registry=None):
        if cache is None:
            raise JournalError(
                "a durable run requires a result cache: the journal "
                "records digests of results, the cache holds the results "
                "themselves (pass cache=... or drop journal=...)")
        self.cache = cache
        self.settings = settings if settings is not None else DurableSettings()
        self.owner = owner_id()
        self._journal_arg = journal
        self.journal: Optional[RunJournal] = None
        self.state = None
        self.leases = LeaseTable(self.settings)
        self.specs: Sequence[Any] = ()
        self._keys: List[str] = []
        if registry is None:
            from repro.obs.metrics import Registry

            registry = Registry()
        self.registry = registry
        self._m_replayed = registry.counter(
            "durable_replayed_points_total",
            "points satisfied from the journal+cache on resume")
        self._m_reclaimed = registry.counter(
            "durable_reclaimed_leases_total",
            "orphaned/expired leases reclaimed, by reason",
            labels=("reason",))
        self._m_retries = registry.counter(
            "durable_retries_total", "journaled point re-dispatches")
        self._m_expired = registry.counter(
            "durable_watchdog_expired_total",
            "points the watchdog declared stuck (lease expired, no beat)")
        self._m_resumes = registry.counter(
            "durable_resumes_total", "journal-backed run resumptions")

    # ------------------------------------------------------------------ begin

    def begin(self, specs: Sequence[Any]) -> Dict[int, Any]:
        """Open/resume the journal for ``specs``; returns recovered results.

        The return value maps point index -> :class:`SimStats` for every
        point whose ``point_done`` record survived validation against the
        cache.  Everything else — fresh points, orphans, demoted done
        records — is plain *todo* for the caller, in input order.
        """
        self.specs = specs
        self._keys = [spec.key() for spec in specs]
        labels = [spec.label for spec in specs]
        self.journal = resolve_journal(self._journal_arg, self._keys)
        scenarios = sorted({spec.scenario for spec in specs
                            if getattr(spec, "scenario", None)})
        meta = {"scenario_sha256": scenarios[0]} if len(scenarios) == 1 \
            else ({"scenario_sha256": scenarios} if scenarios else {})
        engines = {getattr(spec, "engine", None) for spec in specs}
        if len(engines) == 1 and None not in engines:
            meta["engine"] = engines.pop()
        self.state, resumed = self.journal.open_run(self._keys, labels,
                                                    meta=meta)
        recovered: Dict[int, Any] = {}
        if not resumed:
            return recovered
        self._m_resumes.inc()
        # Done records are only as good as the cache entries behind them.
        demoted = 0
        for index, digest in sorted(self.state.done.items()):
            stats = self.cache.get(self._keys[index])
            if stats is not None and stats_sha256(stats.to_dict()) == digest:
                recovered[index] = stats
                self._m_replayed.inc()
            else:
                # The cache lost or corrupted the result after it was
                # journaled: demote to todo (in memory only — a fresh
                # point_done will supersede the stale one on completion).
                del self.state.done[index]
                demoted += 1
        # Leases: a dead local owner is reclaimed immediately; otherwise
        # the wall-clock deadline decides (a live foreign coordinator may
        # legitimately still hold the lease — resuming under it would
        # double-run the point).
        reclaimed = 0
        now = time.time()
        for index, claim in sorted(self.state.claims.items()):
            if owner_is_dead_local(claim.owner) or claim.owner == self.owner:
                reason = "owner_dead"
            elif claim.expired(now):
                reason = "lease_expired"
            else:
                raise JournalError(
                    f"point {index} ({self.state.labels[index]!r}) is "
                    f"leased to {claim.owner} until "
                    f"{claim.deadline_unix - now:.1f}s from now; refusing "
                    "to resume under a live lease (wait it out, or stop "
                    "the other coordinator)")
            self.journal.append("point_reclaimed", index=index,
                                owner=claim.owner, reason=reason)
            self._m_reclaimed.labels(reason).inc()
            reclaimed += 1
        self.state.claims.clear()
        self.journal.append("run_resumed", owner=self.owner,
                            replayed=len(recovered), reclaimed=reclaimed,
                            demoted=demoted)
        return recovered

    # ------------------------------------------------------------ transitions

    def attempts(self, index: int) -> int:
        return self.state.attempts.get(index, 0)

    def budget_left(self, index: int) -> bool:
        return self.attempts(index) < self.settings.max_point_retries

    def claim(self, index: int) -> None:
        """Journal a lease for ``index`` and start its liveness clock.

        Raises :class:`~repro.errors.FarmError` when the point's
        journal-counted attempt budget is already spent — the
        deterministic-crash stopcock.
        """
        if not self.budget_left(index):
            label = self.state.labels[index]
            error = (f"point {label!r} exhausted its retry budget: "
                     f"{self.attempts(index)} attempts across resumes "
                     f"(max_point_retries={self.settings.max_point_retries})")
            self.fail(index, error)
            raise FarmError(error, label=label)
        attempt = self.attempts(index) + 1
        if attempt > 1:
            self._m_retries.inc()
        record = self.journal.append(
            "point_claimed", index=index, key=self._keys[index],
            owner=self.owner, lease_s=self.settings.lease_s,
            deadline_unix=round(time.time() + self.settings.lease_s, 6),
            attempt=attempt)
        self.state.apply(record)
        self.leases.start(index)

    def heartbeat(self, index: int) -> None:
        """A worker proved liveness for ``index``; extend the on-disk
        lease at most every ``journal_renew_s`` (the beat stream itself
        stays off-disk)."""
        self.leases.beat(index)
        if self.leases.due_renewal(index):
            record = self.journal.append(
                "lease_renewed", index=index, owner=self.owner,
                deadline_unix=round(time.time() + self.settings.lease_s, 6))
            self.state.apply(record)
            self.leases.renewed(index)

    def expired(self) -> List[int]:
        """Indices whose lease ran out with no heartbeat — *stuck*."""
        return self.leases.expired_now()

    def reclaim(self, index: int, reason: str = "lease_expired") -> None:
        """The watchdog declared ``index`` stuck; journal the reclaim.
        The caller kills/abandons the worker and re-claims to retry."""
        record = self.journal.append("point_reclaimed", index=index,
                                     owner=self.owner, reason=reason)
        self.state.apply(record)
        self.leases.drop(index)
        self._m_reclaimed.labels(reason).inc()
        if reason == "lease_expired":
            self._m_expired.inc()

    def done(self, index: int, stats) -> None:
        """Journal completion of ``index``.

        WAL ordering: the caller **must** have stored ``stats`` in the
        cache first — this record asserts the result is durable."""
        record = self.journal.append(
            "point_done", index=index, key=self._keys[index],
            cache_key=self._keys[index],
            stats_sha256=stats_sha256(stats.to_dict()))
        self.state.apply(record)
        self.leases.drop(index)

    def fail(self, index: int, error: str) -> None:
        record = self.journal.append("point_failed", index=index,
                                     error=str(error),
                                     attempt=self.attempts(index))
        self.state.apply(record)
        self.leases.drop(index)

    def seal(self) -> None:
        """Every point is done: journal ``run_sealed`` and close."""
        missing = self.state.todo()
        if missing:
            raise JournalError(
                f"cannot seal: {len(missing)} points still open "
                f"(first: {self.state.labels[missing[0]]!r})")
        if not self.state.sealed:
            record = self.journal.append("run_sealed",
                                         done=len(self.state.done))
            self.state.apply(record)

    def close(self) -> None:
        if self.journal is not None:
            self.journal.close()
