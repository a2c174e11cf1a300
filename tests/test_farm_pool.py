"""Worker pool: ordering, fallback, crash retry, timeout, task errors,
and the warm workers' kill-and-replace lifecycle."""

import multiprocessing
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.errors import FarmCancelled, FarmError
from repro.farm.pool import WorkerPool, fork_available, run_tasks

pytestmark = pytest.mark.skipif(not fork_available(),
                                reason="platform cannot fork")


# Task functions live at module top level so they are importable/picklable.

def square(payload):
    return payload * payload


def pid_of(_payload):
    return os.getpid()


def sleep_then_square(payload):
    time.sleep(payload * 0.05)
    return payload * payload


def sleep_forever(_payload):
    time.sleep(60)


def crash_hard(_payload):
    os._exit(3)  # no exception, no report: a genuine worker death


def crash_once_then_succeed(flag_path):
    if not os.path.exists(flag_path):
        with open(flag_path, "w") as handle:
            handle.write("crashed")
        os._exit(1)
    return "recovered"


def raise_value_error(payload):
    raise ValueError(f"bad payload {payload}")


class TestOrdering:
    def test_results_in_payload_order(self):
        assert run_tasks(square, [3, 1, 4, 1, 5], jobs=3) == [9, 1, 16, 1, 25]

    def test_order_independent_of_completion_time(self):
        # Later payloads sleep less, so they complete first.
        payloads = [4, 3, 2, 1, 0]
        assert run_tasks(sleep_then_square, payloads, jobs=5) \
            == [16, 9, 4, 1, 0]

    def test_empty(self):
        assert run_tasks(square, [], jobs=4) == []

    def test_on_result_sees_every_completion(self):
        seen = {}
        run_tasks(square, [2, 3, 4], jobs=2,
                  on_result=lambda i, r: seen.__setitem__(i, r))
        assert seen == {0: 4, 1: 9, 2: 16}


class TestExecutionModes:
    def test_jobs_1_runs_in_process(self):
        assert run_tasks(pid_of, [None], jobs=1) == [os.getpid()]

    def test_parallel_runs_in_workers(self):
        pids = run_tasks(pid_of, [None, None], jobs=2)
        assert all(pid != os.getpid() for pid in pids)


class TestFailures:
    def test_task_exception_raises_farm_error_with_label(self):
        with pytest.raises(FarmError, match="ValueError.*bad payload"):
            run_tasks(raise_value_error, [7], jobs=2, labels=["lbl7"])
        with pytest.raises(FarmError) as excinfo:
            run_tasks(raise_value_error, [7], jobs=2, labels=["lbl7"])
        assert excinfo.value.label == "lbl7"

    def test_task_exception_in_serial_mode(self):
        with pytest.raises(FarmError, match="ValueError"):
            run_tasks(raise_value_error, [7], jobs=1)

    def test_crash_exhausts_retries(self):
        with pytest.raises(FarmError, match="crashed.*attempt 2 of 2"):
            run_tasks(crash_hard, [None], jobs=2, retries=1)

    def test_crash_once_then_recover(self, tmp_path):
        flag = str(tmp_path / "crashed.flag")
        assert run_tasks(crash_once_then_succeed, [flag],
                         jobs=2, retries=1) == ["recovered"]

    def test_timeout_kills_and_reports(self):
        started = time.monotonic()
        with pytest.raises(FarmError, match="timed out"):
            run_tasks(sleep_forever, [None], jobs=2,
                      timeout=0.3, retries=0)
        assert time.monotonic() - started < 30

    def test_failure_terminates_outstanding_workers(self):
        # The long sleeper must not keep the call alive after the crash
        # exhausts its budget.
        started = time.monotonic()
        with pytest.raises(FarmError):
            run_tasks(crash_hard, [None, None], jobs=2, retries=0)
        assert time.monotonic() - started < 30


# ------------------------------------------------------------ warm workers

def dispatch(payload):
    """One task function for a long-lived pool: ``payload`` names what
    this task does."""
    what = payload[0]
    if what == "crash":
        os._exit(3)
    if what == "sleep":
        time.sleep(payload[1])
    if what == "fault":
        from repro.robust.faults import maybe_worker_fault

        maybe_worker_fault(label="test")
    return os.getpid()


def _gone(pid):
    """Whether ``pid`` has exited (a zombie awaiting its reaper counts)."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] == "Z"
    except FileNotFoundError:
        return True


def _wait_gone(pids, seconds):
    deadline = time.monotonic() + seconds
    while time.monotonic() < deadline:
        if all(_gone(pid) for pid in pids):
            return True
        time.sleep(0.05)
    return all(_gone(pid) for pid in pids)


class TestWarmWorkers:
    def test_workers_are_reused_across_tasks(self):
        pids = run_tasks(pid_of, [None] * 6, jobs=2)
        assert len(set(pids)) <= 2
        assert os.getpid() not in pids

    def test_workers_survive_between_runs(self):
        with WorkerPool(dispatch, 1) as pool:
            first = pool.run([("pid",)])
            assert pool.run([("pid",)]) == first

    def test_replacement_serves_after_crash(self):
        with WorkerPool(dispatch, 1) as pool:
            [before] = pool.run([("pid",)])
            with pytest.raises(FarmError, match="crashed"):
                pool.run([("crash",)], retries=0)
            [after] = pool.run([("pid",)])
        assert after != before

    def test_replacement_serves_after_timeout(self):
        with WorkerPool(dispatch, 1) as pool:
            [before] = pool.run([("pid",)])
            with pytest.raises(FarmError, match="timed out"):
                pool.run([("sleep", 60)], timeout=0.3, retries=0)
            [after] = pool.run([("pid",)])
            assert after != before
            assert _wait_gone([before], 5)

    def test_idle_worker_killed_between_runs_costs_no_retry(self):
        retried = []
        with WorkerPool(dispatch, 1) as pool:
            [before] = pool.run([("pid",)])
            os.kill(before, signal.SIGKILL)
            assert _wait_gone([before], 5)
            [after] = pool.run([("pid",)], retries=0,
                               on_retry=lambda i, what: retried.append(what))
        assert after != before
        assert retried == []

    def test_fault_armed_after_fork_still_fires(self, monkeypatch):
        from repro.robust.faults import WORKER_FAULT_ENV, worker_fault_spec

        monkeypatch.delenv(WORKER_FAULT_ENV, raising=False)
        with WorkerPool(dispatch, 1) as pool:
            pool.run([("fault",)])   # the worker forks with no fault armed
            monkeypatch.setenv(WORKER_FAULT_ENV,
                               worker_fault_spec(crash=1.0))
            with pytest.raises(FarmError, match="crashed"):
                pool.run([("fault",)], retries=0)
            monkeypatch.delenv(WORKER_FAULT_ENV)
            assert pool.run([("fault",)])   # disarmed for the next task

    def test_close_leaves_no_children(self):
        pool = WorkerPool(dispatch, 2)
        pids = pool.run([("pid",), ("sleep", 0.2)])
        started = time.monotonic()
        pool.close()
        assert time.monotonic() - started < 1.5   # idle workers exit on EOF
        assert multiprocessing.active_children() == []
        assert _wait_gone(pids, 5)

    def test_other_pools_workers_do_not_pin_a_closing_pool(self):
        # The second worker forks while the first is alive; unless it
        # drops its copy of the first one's pipe, the first never sees
        # EOF and close() waits out the grace before killing.
        with WorkerPool(dispatch, 1) as other:
            first = WorkerPool(dispatch, 1)
            [pid] = first.run([("pid",)])
            other.run([("pid",)])
            started = time.monotonic()
            first.close()
            assert time.monotonic() - started < 1.5
            assert _gone(pid) or _wait_gone([pid], 1)

    def test_closed_pool_refuses_work(self):
        pool = WorkerPool(dispatch, 1)
        pool.close()
        with pytest.raises(FarmCancelled):
            pool.run([("pid",)])

    def test_sigkilled_coordinator_leaves_no_workers(self, tmp_path):
        script = (
            "import os, sys, time\n"
            "from repro.farm.pool import WorkerPool\n"
            "def pid_of(_):\n"
            "    return os.getpid()\n"
            "pool = WorkerPool(pid_of, 2)\n"
            "print(*pool.run([0, 1, 2, 3]), flush=True)\n"
            "time.sleep(60)\n")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, ["src", env.get("PYTHONPATH")]))
        proc = subprocess.Popen(
            [sys.executable, "-c", script], stdout=subprocess.PIPE,
            cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            env=env, text=True)
        try:
            pids = [int(pid) for pid in proc.stdout.readline().split()]
            assert pids and not _wait_gone(pids, 0)
            proc.kill()
            proc.wait(timeout=10)
            assert _wait_gone(pids, 5), "idle workers outlived their " \
                                        "SIGKILLed coordinator"
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
