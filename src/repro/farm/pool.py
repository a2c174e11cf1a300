"""Worker pool: fan picklable tasks across warm, forked workers.

The paper farmed its sweep out as "a separate simulator binary per
configuration"; this is the same move in-process.  ``run_tasks(fn,
payloads)`` executes ``fn(payload)`` for every payload and returns the
results **in payload order**, regardless of completion order — callers can
rely on determinism.

Execution model (:class:`WorkerPool`):

* at most ``workers`` long-lived processes, forked lazily on the first
  task; each loops *receive a payload, call* ``fn``, *send the result*,
  so a worker pays the fork and its imports once, not once per task (a
  serve-sized point simulates in ~13 ms on the native engine; a cold
  fork cost 35–40 ms);
* each task reports ``("ok", result)`` or ``("error", message)`` over the
  worker's pipe;
* a worker that *dies without reporting* (segfault, OOM-kill,
  ``os._exit``) is replaced by a fresh fork and the task retried up to
  ``retries`` times, then :class:`~repro.errors.FarmError` is raised —
  crashes are plausibly transient;
* a task that exceeds ``timeout`` seconds gets its worker SIGKILLed and
  replaced, and is retried under the same budget;
* a task function that *raises* fails fast with no retry — a
  deterministic exception would just raise again.  The worker survives.

Per-task isolation therefore stays what a fork per task gave: a task can
kill or hang only its own worker, and the replacement starts from the
parent's state, never from the dead worker's.

Liveness (the durable layer's watchdog channel): when ``heartbeat_s`` is
set, the worker runs a daemon thread that sends ``("hb", t)`` over the
same pipe every beat while the task runs.  When ``lease_s`` is also set,
the parent declares a worker **stuck** — as opposed to merely *slow* —
when its lease elapses with no heartbeat (a sleeping worker still beats;
a SIGSTOPped or livelocked one cannot), SIGKILLs it, and retries under
the same budget.  ``on_start``/``on_heartbeat``/``on_retry`` let a caller
(the journal driver) witness every attempt and every proof of life.

Fork hygiene:

* spawns are serialised under one process-wide lock, and the parent
  loads the native engine's kernel right before its first fork, so every
  worker inherits the loaded library instead of rebuilding it;
* each child closes every other worker's parent-side pipe end, so an
  idle worker sees EOF — and exits — as soon as its coordinator closes
  the pool or dies (even by SIGKILL): no orphans, and :meth:`~WorkerPool.
  close` never waits out a join timeout;
* each task message carries the parent's *current* worker-fault and obs
  trace environment, so a setting made after the workers were forked
  still reaches the next task.

When ``jobs <= 1`` or the platform cannot fork (Windows, some macOS
configurations), :func:`run_tasks` degrades to plain in-process execution
with identical semantics except that timeouts and leases are not enforced
(there is no separate process to watch or kill).

Interruption is first-class:

* a caller can hand :meth:`WorkerPool.run` / ``run_tasks`` a
  ``stop_event`` (any object with ``is_set()``); setting it SIGKILLs every
  busy worker and raises :class:`~repro.errors.FarmCancelled` — this is
  how a draining server abandons a request it has already answered with
  504;
* when running on the main thread, SIGINT/SIGTERM are latched via
  :class:`~repro.robust.signals.SignalDrain` for the duration of a run:
  every worker is killed and reaped *first*, then the signal is
  re-delivered with its original disposition — Ctrl-C or a supervisor's
  TERM never orphans live forks.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection
import os
import signal
import threading
import time
from collections import deque
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.errors import ConfigurationError, FarmCancelled, FarmError
from repro.obs import SAMPLE_INTERVAL_ENV, TRACE_ENV
from repro.robust.faults import WORKER_FAULT_ENV
from repro.robust.signals import SignalDrain

#: How long one scheduling-loop wait on the workers' pipes may block.
_POLL_SECONDS = 0.05

#: How long a worker that closed its pipe (or was told to stop) gets to
#: exit on its own before SIGKILL.
_EXIT_GRACE_SECONDS = 2.0

#: Environment every task message carries from the parent, read at send
#: time: the chaos harness arms worker faults, and a traced run enables
#: obs tracing, after the pool may already have forked.
_FORWARDED_ENV = (WORKER_FAULT_ENV, TRACE_ENV, SAMPLE_INTERVAL_ENV)

#: Serialises every fork in the process (all pools, all threads), so no
#: child inherits another worker's half-built pipe.
_SPAWN_LOCK = threading.Lock()

#: Parent-side pipe end of every live worker in this process; a new child
#: closes its copies, so it never keeps a sibling's pipe open.
_PARENT_ENDS: set = set()


def fork_available() -> bool:
    """Whether the platform supports the ``fork`` start method."""
    return "fork" in multiprocessing.get_all_start_methods()


def _warm_parent() -> None:
    """Load the native kernel in this process before it forks (a no-op
    after the first time: the kernel is cached per process).

    Workers then inherit the compiled module and the loaded library.  A
    kernel that cannot be had is cached as its error, so each worker's
    first native run still counts and logs the fallback, as it would
    without this.
    """
    from repro.core.engine import EngineUnavailable
    from repro.core.engine import native

    try:
        native.kernel()
    except EngineUnavailable:
        pass


def _forwarded_env() -> Dict[str, Optional[str]]:
    return {name: os.environ.get(name) for name in _FORWARDED_ENV}


def _worker_main(conn, parent_end, siblings, fn: Callable[[Any], Any]
                 ) -> None:
    # The fork inherits the parent's latched SIGINT/SIGTERM handlers
    # (SignalDrain); restore the defaults so Ctrl-C and a supervisor's
    # TERM actually kill the worker instead of being latched and ignored.
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_DFL)
    # Hold no parent-side end, ours or a sibling's: EOF on our own pipe
    # must mean the coordinator let go of us.
    for end in (parent_end, *siblings):
        end.close()
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            return   # pool closed or coordinator died: exit, never orphan
        payload, heartbeat_s, env = message
        for name, value in env.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value
        if not _run_one(conn, fn, payload, heartbeat_s):
            return


def _run_one(conn, fn, payload, heartbeat_s: Optional[float]) -> bool:
    """Run one task and report it; False when the pipe is gone."""
    send_lock = threading.Lock()   # beat thread and task share conn
    stop_beat = threading.Event()
    if heartbeat_s is not None:
        def _beat() -> None:
            while not stop_beat.wait(heartbeat_s):
                with send_lock:
                    # Checked under the lock: no beat may follow the
                    # report, or it would be charged to the next task.
                    if stop_beat.is_set():
                        return
                    try:
                        conn.send(("hb", time.monotonic()))
                    except OSError:
                        return   # parent gone: nothing to prove

        threading.Thread(target=_beat, name="pool-heartbeat",
                         daemon=True).start()
    try:
        report = ("ok", fn(payload))
    except BaseException as exc:  # report, don't crash: crashes mean retry
        report = ("error", f"{type(exc).__name__}: {exc}")
    stop_beat.set()
    with send_lock:
        try:
            conn.send(report)
        except OSError:
            return False
    return True


class _Worker:
    """Parent-side handle on one forked worker."""

    __slots__ = ("proc", "conn", "index", "deadline", "last_beat")

    def __init__(self, proc, conn) -> None:
        self.proc = proc
        self.conn = conn
        #: The task in flight, or ``None`` while idle.
        self.index: Optional[int] = None
        self.deadline: Optional[float] = None
        self.last_beat = 0.0


def _label(labels: Optional[Sequence[str]], index: int) -> str:
    if labels is not None and index < len(labels):
        return labels[index]
    return f"task {index}"


def _run_serial(fn, payloads, labels, on_result, on_start) -> List[Any]:
    results: List[Any] = []
    for index, payload in enumerate(payloads):
        if on_start is not None:
            on_start(index)
        try:
            result = fn(payload)
        except FarmError:
            raise
        except Exception as exc:
            raise FarmError(
                f"task {_label(labels, index)!r} failed: "
                f"{type(exc).__name__}: {exc}",
                label=_label(labels, index)) from exc
        results.append(result)
        if on_result is not None:
            on_result(index, result)
    return results


def _validate_pool_params(timeout, retries, heartbeat_s, lease_s):
    if timeout is not None and not timeout > 0:
        raise ConfigurationError(
            f"timeout must be positive (or None), got {timeout!r}: a "
            "non-positive timeout kills every task before it starts")
    if retries < 0:
        raise ConfigurationError(
            f"retries must be >= 0, got {retries!r}")
    if heartbeat_s is not None and not heartbeat_s > 0:
        raise ConfigurationError(
            f"heartbeat_s must be positive (or None), got {heartbeat_s!r}")
    if lease_s is not None:
        if not lease_s > 0:
            raise ConfigurationError(
                f"lease_s must be positive (or None), got {lease_s!r}: a "
                "zero/negative lease declares every worker stuck instantly")
        if heartbeat_s is None:
            raise ConfigurationError(
                "lease_s without heartbeat_s would reap every worker at "
                "the lease deadline: enable heartbeats or drop the lease")
        if heartbeat_s > lease_s / 2:
            raise ConfigurationError(
                f"heartbeat_s ({heartbeat_s:g}) must be at most half of "
                f"lease_s ({lease_s:g}); a lease needs several beats of "
                "slack or healthy workers get reaped")


class WorkerPool:
    """Up to ``workers`` warm forked processes running ``fn``.

    Workers are forked on demand and kept between :meth:`run` calls
    until :meth:`close` (or the ``with`` block's end).  One :meth:`run`
    at a time per pool; separate pools may run on separate threads.

    Raises:
        ConfigurationError: ``workers < 1``, or the platform cannot fork.
    """

    def __init__(self, fn: Callable[[Any], Any], workers: int = 1) -> None:
        if workers < 1:
            raise ConfigurationError(
                f"workers must be >= 1, got {workers!r}")
        if not fork_available():
            raise ConfigurationError(
                "a worker pool needs the 'fork' start method, which this "
                "platform lacks")
        self._fn = fn
        self._size = workers
        self._workers: List[_Worker] = []
        self._lock = threading.Lock()
        self._closed = False

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ------------------------------------------------------------ workers

    def _spawn(self) -> _Worker:
        ctx = multiprocessing.get_context("fork")
        with _SPAWN_LOCK:
            if self._closed:
                raise FarmCancelled("worker pool closed")
            _warm_parent()
            parent_end, child_end = ctx.Pipe(duplex=True)
            proc = ctx.Process(target=_worker_main,
                               args=(child_end, parent_end,
                                     list(_PARENT_ENDS), self._fn),
                               daemon=True)
            proc.start()
            child_end.close()   # the worker holds the only child end now
            _PARENT_ENDS.add(parent_end)
            worker = _Worker(proc, parent_end)
            with self._lock:
                self._workers.append(worker)
        return worker

    def _discard(self, worker: _Worker, grace: float = 0.0) -> None:
        """Close ``worker``'s pipe, give it ``grace`` seconds to exit on
        its own, then SIGKILL and reap it."""
        with self._lock:
            if worker in self._workers:
                self._workers.remove(worker)
        _PARENT_ENDS.discard(worker.conn)
        try:
            worker.conn.close()
        except OSError:
            pass
        if grace > 0:
            worker.proc.join(grace)
        if worker.proc.is_alive():
            # SIGKILL, not SIGTERM: a SIGSTOPped (stuck) worker never
            # receives TERM, and a worker mid-task has nothing to save.
            worker.proc.kill()
        worker.proc.join()

    def _idle_worker(self) -> Optional[_Worker]:
        """A live idle worker, a fresh one if the pool has room, or None.
        A worker found dead while idle is replaced; no task is charged."""
        with self._lock:
            workers = list(self._workers)
        for worker in workers:
            if worker.index is not None:
                continue
            if worker.proc.is_alive() and not worker.conn.poll():
                return worker
            self._discard(worker)
        if len(self._workers) < self._size:
            return self._spawn()
        return None

    def close(self) -> None:
        """Stop every worker: idle ones exit on EOF, busy ones are
        SIGKILLed; all are reaped.  Idempotent; later runs are refused."""
        with _SPAWN_LOCK:
            self._closed = True
        with self._lock:
            workers = list(self._workers)
        for worker in workers:   # EOF for every idle worker at once
            if worker.index is not None:
                worker.proc.kill()
            try:
                worker.conn.close()
            except OSError:
                pass
        for worker in workers:
            self._discard(worker, grace=_EXIT_GRACE_SECONDS)

    # --------------------------------------------------------------- runs

    def run(self, payloads: Sequence[Any],
            timeout: Optional[float] = None,
            retries: int = 1,
            labels: Optional[Sequence[str]] = None,
            on_result: Optional[Callable[[int, Any], None]] = None,
            stop_event: Optional[Any] = None,
            heartbeat_s: Optional[float] = None,
            lease_s: Optional[float] = None,
            on_heartbeat: Optional[Callable[[int], None]] = None,
            on_start: Optional[Callable[[int], None]] = None,
            on_retry: Optional[Callable[[int, str], None]] = None
            ) -> List[Any]:
        """Run ``fn`` over every payload on this pool's workers; results
        in payload order.  The arguments are those of :func:`run_tasks`
        (``timeout`` and ``lease_s`` are always enforced here)."""
        _validate_pool_params(timeout, retries, heartbeat_s, lease_s)
        if not payloads:
            return []
        with SignalDrain() as drain:
            try:
                return self._run(payloads, timeout, retries, labels,
                                 on_result, stop_event, drain, heartbeat_s,
                                 lease_s, on_heartbeat, on_start, on_retry)
            except FarmCancelled:
                if drain.triggered:
                    # Reap every worker, idle ones too, before the latched
                    # signal is re-delivered on the way out.
                    self.close()
                raise

    def _run(self, payloads, timeout, retries, labels, on_result,
             stop_event, drain: SignalDrain, heartbeat_s, lease_s,
             on_heartbeat, on_start, on_retry) -> List[Any]:
        results: List[Any] = [None] * len(payloads)
        pending = deque(range(len(payloads)))
        attempts = [0] * len(payloads)
        busy: Dict[int, _Worker] = {}

        def abandon(index: int, what: str) -> None:
            """Kill the task's worker; retry the task or fail the run."""
            worker = busy.pop(index)
            worker.index = None
            self._discard(worker)
            if on_retry is not None:
                on_retry(index, what)
            attempts[index] += 1
            if attempts[index] > retries:
                raise FarmError(
                    f"task {_label(labels, index)!r} {what} "
                    f"(attempt {attempts[index]} of {retries + 1})",
                    label=_label(labels, index))
            pending.appendleft(index)

        try:
            while pending or busy:
                if drain.triggered:
                    raise FarmCancelled(
                        "worker pool interrupted by signal; children reaped")
                if stop_event is not None and stop_event.is_set():
                    raise FarmCancelled("worker pool cancelled by caller")
                while pending:
                    worker = self._idle_worker()
                    if worker is None:
                        break
                    index = pending.popleft()
                    if on_start is not None:
                        on_start(index)
                    now = time.monotonic()
                    worker.index = index
                    worker.deadline = (now + timeout
                                       if timeout is not None else None)
                    worker.last_beat = now
                    busy[index] = worker
                    try:
                        worker.conn.send((payloads[index], heartbeat_s,
                                          _forwarded_env()))
                    except OSError:
                        abandon(index, "crashed before taking its task")

                ready = multiprocessing.connection.wait(
                    [worker.conn for worker in busy.values()],
                    timeout=_POLL_SECONDS)
                now = time.monotonic()
                for index, worker in list(busy.items()):
                    if worker.conn in ready:
                        try:
                            status, value = worker.conn.recv()
                        except (EOFError, OSError):
                            worker.proc.join(_EXIT_GRACE_SECONDS)
                            abandon(index,
                                    f"crashed (exit code "
                                    f"{worker.proc.exitcode}) without "
                                    f"reporting a result")
                            continue
                        if status == "hb":
                            worker.last_beat = now
                            if on_heartbeat is not None:
                                on_heartbeat(index)
                            continue
                        del busy[index]
                        worker.index = None
                        if status != "ok":
                            raise FarmError(
                                f"task {_label(labels, index)!r} failed: "
                                f"{value}",
                                label=_label(labels, index))
                        results[index] = value
                        if on_result is not None:
                            on_result(index, value)
                    elif worker.deadline is not None and now > worker.deadline:
                        abandon(index, f"timed out after {timeout:g}s")
                    elif (lease_s is not None
                          and now - worker.last_beat > lease_s):
                        # Expired lease with no beat: *stuck*, not slow — a
                        # slow worker would still be heartbeating.
                        abandon(index,
                                f"went silent: lease expired after "
                                f"{lease_s:g}s with no heartbeat (worker "
                                f"presumed stuck)")
                    elif (not worker.proc.is_alive()
                          and not worker.conn.poll()):
                        abandon(index,
                                f"crashed (exit code {worker.proc.exitcode}) "
                                f"without reporting a result")
        finally:
            # A worker still busy here is running a task nobody will
            # collect (failure or cancellation): kill it, keep the idle.
            for worker in busy.values():
                worker.index = None
                self._discard(worker)
        return results


def run_tasks(fn: Callable[[Any], Any],
              payloads: Sequence[Any],
              jobs: int = 1,
              timeout: Optional[float] = None,
              retries: int = 1,
              labels: Optional[Sequence[str]] = None,
              on_result: Optional[Callable[[int, Any], None]] = None,
              stop_event: Optional[Any] = None,
              heartbeat_s: Optional[float] = None,
              lease_s: Optional[float] = None,
              on_heartbeat: Optional[Callable[[int], None]] = None,
              on_start: Optional[Callable[[int], None]] = None,
              on_retry: Optional[Callable[[int, str], None]] = None
              ) -> List[Any]:
    """Run ``fn`` over every payload; results in payload order.

    Args:
        fn: top-level callable (picklable not required under fork, but keep
            it importable for readability); receives one payload.
        payloads: task inputs; each must produce a picklable result.
        jobs: maximum concurrently running workers (a :class:`WorkerPool`
            of this size lives for the call).
        timeout: per-task wall-clock limit in seconds (parallel mode only).
        retries: how many *re-runs* a crashed or timed-out task gets.
        labels: optional human-readable task names for errors/telemetry.
        on_result: called as ``on_result(index, result)`` as each task
            completes (completion order, not payload order).
        stop_event: optional cancellation token (``is_set()`` is polled
            every scheduling pass, parallel mode only); when set, busy
            workers are killed and :class:`~repro.errors.FarmCancelled`
            is raised.
        heartbeat_s: when set, each worker proves liveness this often
            over its pipe while a task runs.
        lease_s: when set (requires ``heartbeat_s``), a worker whose
            lease elapses with **no** heartbeat is declared stuck,
            SIGKILLed, replaced, and its task retried under the same
            ``retries`` budget — distinct from ``timeout``, which bounds
            total runtime of even a healthy worker.
        on_heartbeat: called as ``on_heartbeat(index)`` on every beat
            (the durable layer renews journal leases here).
        on_start: called as ``on_start(index)`` immediately before every
            execution attempt of a task, including retries (the durable
            layer journals ``point_claimed`` here; raising aborts the
            run).
        on_retry: called as ``on_retry(index, what)`` when an attempt is
            abandoned — crashed, timed out, or lease-expired (``what``
            says which) — whether or not budget remains (the durable
            layer journals ``point_reclaimed`` here).

    Raises:
        ConfigurationError: a parameter is out of range (checked up
            front — misconfiguration must not surface hours into a run).
        FarmCancelled: ``stop_event`` was set mid-run.
        FarmError: a task raised, or crashed/timed out past its retry
            budget.  Outstanding workers are killed before raising.
    """
    _validate_pool_params(timeout, retries, heartbeat_s, lease_s)
    if not payloads:
        return []
    if jobs <= 1 or not fork_available():
        return _run_serial(fn, payloads, labels, on_result, on_start)
    with WorkerPool(fn, jobs) as pool:
        return pool.run(payloads, timeout=timeout, retries=retries,
                        labels=labels, on_result=on_result,
                        stop_event=stop_event, heartbeat_s=heartbeat_s,
                        lease_s=lease_s, on_heartbeat=on_heartbeat,
                        on_start=on_start, on_retry=on_retry)
