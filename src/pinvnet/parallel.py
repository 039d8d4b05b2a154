"""Deterministic process-parallel map for independent, seeded jobs.

Each worker is an interpreter with BLAS pinned to one thread, started on
the first call that needs it and kept for the rest of the caller's
process, so later calls reuse it. It imports pinvnet from the same
package root as the caller and, for every call, reads its pickled share
of the jobs from stdin and writes its results to stdout. A call that
raises kills every worker, and the next call starts fresh ones; at exit
each worker's stdin is closed and the worker is waited for. Workers are
plain subprocesses rather than a multiprocessing pool: spawn and
forkserver re-import the caller's __main__, which breaks scripts without
an ``if __name__ == "__main__"`` guard, and fork is unsafe in a process
that has threads.
"""
from __future__ import annotations

import atexit
import contextlib
import os
import pickle
import subprocess
import sys
import threading
import time
import warnings
from pathlib import Path

import numpy as np

from .errors import PinvnetError

__all__ = ["map_jobs"]

_ROOT = str(Path(__file__).resolve().parent.parent)
# the package root goes first only if it is not on the path already, so an
# installed pinvnet resolves in a worker exactly as in its caller
_WORKER = ("import sys\n"
           "if sys.argv[1] not in sys.path: sys.path.insert(0, sys.argv[1])\n"
           "from pinvnet.parallel import _serve; _serve()")
_ONE_THREAD = {name: "1" for name in
               ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
# the cgroup CPU quota, "<quota> <period>": v2 in one file, v1 in two
_QUOTA_FILES = (("/sys/fs/cgroup/cpu.max",),
                ("/sys/fs/cgroup/cpu/cpu.cfs_quota_us",
                 "/sys/fs/cgroup/cpu/cpu.cfs_period_us"))
# how long exit waits for a worker whose stdin it closed before killing it
_EXIT_TIMEOUT_S = 5.0
# the workers of this process, shared by every call; _lock serializes the
# calls, whose messages would otherwise interleave on the same pipes
_pool: list = []
_lock = threading.Lock()


def _quota_cores():
    """Cores the cgroup CPU quota allows, rounded up; None without a quota."""
    for paths in _QUOTA_FILES:
        try:
            fields = " ".join(Path(p).read_text() for p in paths).split()
        except OSError:
            continue
        try:
            quota, period = int(fields[0]), int(fields[1])
        except (ValueError, IndexError):  # v2 writes "max" for no quota
            return None
        return -(-quota // period) if quota > 0 and period > 0 else None
    return None


def _usable_cores() -> int:
    """Cores this process may run on: the affinity mask (else the CPU
    count), capped at the cgroup CPU quota, which the mask does not see."""
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        cores = os.cpu_count() or 1
    quota = _quota_cores()
    return cores if quota is None else min(cores, quota)


def _spawn() -> subprocess.Popen:
    return subprocess.Popen([sys.executable, "-c", _WORKER, _ROOT],
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            env={**os.environ, **_ONE_THREAD})


def _serve(stdin=None, stdout=None) -> None:
    """Worker loop: until stdin ends, read (fn, [(index, args), ...], numpy
    error state), run the jobs under that state in order up to and
    including the first that raises, and write [(index, ok, result or
    exception), ...]. While jobs run, sys.stdout points at stderr so
    nothing printed corrupts the result stream."""
    stdin = stdin or sys.stdin.buffer
    stdout = stdout or sys.stdout.buffer
    while True:
        try:
            fn, jobs, errstate = pickle.load(stdin)
        except EOFError:  # the caller closed stdin
            return
        done = []
        with np.errstate(**errstate), contextlib.redirect_stdout(sys.stderr):
            for index, args in jobs:
                try:
                    done.append((index, True, fn(*args)))
                except Exception as exc:  # reported to the caller, which re-raises
                    done.append((index, False, exc))
                    break
        pickle.dump(done, stdout)
        stdout.flush()


def _collect(proc: subprocess.Popen):
    """One reply from proc, or PinvnetError naming the worker."""
    try:
        return pickle.load(proc.stdout)
    except pickle.UnpicklingError as exc:
        raise PinvnetError(
            f"worker process {proc.pid} sent an unreadable reply: {exc}") from None
    except EOFError:
        pass
    # the worker closed its output, so it has exited or is exiting
    with contextlib.suppress(subprocess.TimeoutExpired):
        proc.wait(_EXIT_TIMEOUT_S)
    status = ("is still running" if proc.returncode is None
              else f"exited with code {proc.returncode}")
    raise PinvnetError(
        f"worker process {proc.pid} {status} without returning its results")


def _workers(n: int) -> list:
    """The first n pooled workers; a dead one is replaced, missing ones start."""
    for i, proc in enumerate(_pool):
        if proc.poll() is not None:
            _close_pipes(proc)
            _pool[i] = _spawn()
    while len(_pool) < n:
        _pool.append(_spawn())
    return _pool[:n]


def _close_pipes(proc: subprocess.Popen) -> None:
    for pipe in (proc.stdin, proc.stdout):
        with contextlib.suppress(OSError):  # a dead worker's stdin is a broken pipe
            pipe.close()


def _shutdown(timeout: float = _EXIT_TIMEOUT_S) -> None:
    """Empty the pool: close every worker's stdin, wait up to timeout
    seconds for the workers to exit, and kill any still running."""
    procs = _pool[:]
    _pool.clear()
    for proc in procs:
        with contextlib.suppress(OSError):
            proc.stdin.close()
    deadline = time.monotonic() + timeout
    for proc in procs:
        try:
            proc.wait(max(0.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        _close_pipes(proc)


def _forget_workers() -> None:
    """In a forked child: close its copies of the workers' pipes, so a
    worker still sees EOF when the parent closes its stdin, and start with
    an empty pool. The fork happened while this thread held _lock, so no
    other thread was using the pipes."""
    for proc in _pool:
        _close_pipes(proc)
    with warnings.catch_warnings():
        # the dropped Popens' processes run on, as the parent's workers
        warnings.simplefilter("ignore", ResourceWarning)
        _pool.clear()
    _lock.release()


atexit.register(_shutdown)
if hasattr(os, "register_at_fork"):  # platforms without fork have no hook
    os.register_at_fork(before=_lock.acquire, after_in_parent=_lock.release,
                        after_in_child=_forget_workers)


def map_jobs(fn, jobs) -> list:
    """[fn(*job) for job in jobs], in job order.

    The jobs are dealt round-robin to one worker process per usable core,
    never more than there are jobs, each with one BLAS thread and the
    caller's numpy error state (`np.geterr`), so a warning the caller
    silences stays silent; with one usable core or one job they run in
    this process. The speed-up has been measured on 2 cores only. fn,
    the jobs and the results must pickle, and fn is sent by import path.
    If jobs raise, the exception of the lowest-index failing job is
    re-raised: the one the in-process loop raises.

    The workers start on the first call that needs them and serve every
    later call of this process; calls from several threads take turns. A
    worker keeps the working directory, environment, stderr and warning
    registry it started with. When this raises, every worker is killed
    and reaped first, and the next call starts new ones; at exit each is
    asked to stop and reaped.
    """
    jobs = list(jobs)
    n = max(1, min(_usable_cores(), len(jobs)))
    if n == 1:
        return [fn(*job) for job in jobs]
    payloads = [pickle.dumps((fn, [(i, jobs[i]) for i in range(w, len(jobs), n)],
                              np.geterr()))
                for w in range(n)]
    with _lock:
        try:
            procs = _workers(n)
            # every worker gets its input before any output is read, so the
            # workers run side by side
            for proc, payload in zip(procs, payloads):
                with contextlib.suppress(BrokenPipeError):  # reported by _collect
                    proc.stdin.write(payload)
                    proc.stdin.flush()
            done = sorted((item for proc in procs for item in _collect(proc)),
                          key=lambda item: item[0])
            # a worker stops at its first failure, so every job below the
            # lowest failing index ran
            for _, ok, value in done:
                if not ok:
                    raise value
            return [value for _, _, value in done]
        except BaseException:  # a worker may be mid-message: kill them all
            _shutdown(timeout=0.0)
            raise
