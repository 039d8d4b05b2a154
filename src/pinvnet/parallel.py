"""Deterministic process-parallel map for independent, seeded jobs.

Each worker is a fresh interpreter started per call with BLAS pinned to
one thread. It imports pinvnet from the same package root as the caller,
reads its pickled share of the jobs from stdin and writes its results to
stdout. Workers are plain subprocesses rather than a multiprocessing
pool: spawn and forkserver re-import the caller's __main__, which breaks
scripts without an ``if __name__ == "__main__"`` guard, and fork is unsafe
in a process that has threads.
"""
from __future__ import annotations

import contextlib
import os
import pickle
import subprocess
import sys
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
    """Worker loop: read (fn, [(index, args), ...], numpy error state),
    run the jobs under that state in order up to and including the first
    that raises, write [(index, ok, result or exception), ...]. While
    jobs run, sys.stdout points at stderr so nothing printed corrupts the
    result stream."""
    stdin = stdin or sys.stdin.buffer
    stdout = stdout or sys.stdout.buffer
    fn, jobs, errstate = pickle.load(stdin)
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
    raw = proc.stdout.read()
    code = proc.wait()
    if code != 0:
        raise PinvnetError(
            f"worker process {proc.pid} exited with code {code} "
            "without returning its results"
        )
    return pickle.loads(raw)


def map_jobs(fn, jobs) -> list:
    """[fn(*job) for job in jobs], in job order.

    The jobs are dealt round-robin to one worker process per usable core,
    never more than there are jobs, each with one BLAS thread and the
    caller's numpy error state (`np.geterr`), so a warning the caller
    silences stays silent; with one usable core or one job they run in
    this process. The speed-up has been measured on 2 cores only. fn,
    the jobs and the results must pickle, and fn is sent by import path.
    If jobs raise, the exception of the lowest-index failing job is
    re-raised: the one the in-process loop raises. Every worker is reaped
    before this returns or raises.
    """
    jobs = list(jobs)
    n = max(1, min(_usable_cores(), len(jobs)))
    if n == 1:
        return [fn(*job) for job in jobs]
    payloads = [pickle.dumps((fn, [(i, jobs[i]) for i in range(w, len(jobs), n)],
                              np.geterr()))
                for w in range(n)]
    procs = []
    try:
        for _ in range(n):
            procs.append(_spawn())
        # every worker gets its input before any output is read, so the
        # workers run side by side
        for proc, payload in zip(procs, payloads):
            with contextlib.suppress(BrokenPipeError):  # reported by _collect
                proc.stdin.write(payload)
                proc.stdin.close()
        done = sorted((item for proc in procs for item in _collect(proc)),
                      key=lambda item: item[0])
        # a worker stops at its first failure, so every job below the
        # lowest failing index ran
        for _, ok, value in done:
            if not ok:
                raise value
        return [value for _, _, value in done]
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
            for pipe in (proc.stdin, proc.stdout):
                with contextlib.suppress(OSError):
                    pipe.close()
