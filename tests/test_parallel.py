"""The worker-process path of cv_search and parallel.map_jobs: the same
results and errors as the in-process loop, the worker cap, workers reused
across calls and threads, and no worker left running."""
import io
import operator
import os
import pickle
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from pinvnet import parallel
from pinvnet.activations import ActivationKind, invert
from pinvnet.datasets import CvPlan, cv_search, gen_spiral
from pinvnet.errors import DomainViolationError, PinvnetError
from pinvnet.training import InitScheme, TrainConfig

ROOT = Path(__file__).resolve().parent.parent
SP = ActivationKind.softplus08()

# Runs with one BLAS thread, the thread count every worker uses, so the
# in-process run (one usable core) and the worker run (two cores) must
# agree bit for bit. Forcing two cores runs the worker path also on a
# one-core machine.
_SAME_RESULT = """
import sys
from pinvnet import parallel
from pinvnet.activations import ActivationKind
from pinvnet.cli import DEFAULT_GRID
from pinvnet.datasets import CvPlan, cv_search, gen_regression, load_csv
from pinvnet.training import InitScheme, TrainConfig

sp = ActivationKind.softplus08()
iris = load_csv(sys.argv[1])
trains, _ = gen_regression(noisy_sets=1, noise_frac=0.1, seed=3)
cases = [
    (iris, list(DEFAULT_GRID), CvPlan(10, 1, 0), False),
    (trains[1], [1, 2, 3, 5, 8], CvPlan(4, 2, 0, stratified=False), True),
]
for ds, grid, plan, linear in cases:
    cfg = TrainConfig(InitScheme.random(plan.seed, 1.0))
    parallel._usable_cores = lambda: 1
    serial = cv_search(ds, ["h-q"], grid, plan, cfg, sp, linear)
    parallel._usable_cores = lambda: 2
    pooled = cv_search(ds, ["h-q"], grid, plan, cfg, sp, linear)
    assert pooled == serial, (pooled, serial)
    print("equal", ds.kind, serial.h)
"""


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env.update(parallel._ONE_THREAD)
    return env


def test_worker_path_matches_in_process_result_at_one_blas_thread():
    done = subprocess.run(
        [sys.executable, "-c", _SAME_RESULT, str(ROOT / "tests" / "data" / "iris_like.csv")],
        env=_env(), capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert [line.split()[:2] for line in done.stdout.splitlines()] == [
        ["equal", "classification"], ["equal", "regression"]]


@pytest.fixture()
def fresh_pool():
    """No pooled worker before or after the test: a worker keeps the stderr
    and the _spawn it started with, so fd capture and recorded spawns need
    workers of the test's own."""
    parallel._shutdown()
    yield
    parallel._shutdown()


@pytest.fixture()
def spawned(monkeypatch, fresh_pool):
    """Two usable cores, an empty pool, and every worker Popen recorded."""
    procs = []
    real_spawn = parallel._spawn

    def recording_spawn():
        procs.append(real_spawn())
        return procs[-1]

    monkeypatch.setattr(parallel, "_usable_cores", lambda: 2)
    monkeypatch.setattr(parallel, "_spawn", recording_spawn)
    return procs


def _all_reaped(procs):
    return all(proc.poll() is not None for proc in procs)


def test_map_jobs_returns_results_in_job_order(spawned):
    jobs = [(i, 10) for i in range(7)]
    assert parallel.map_jobs(operator.mul, jobs) == [
        10 * i for i in range(7)]
    assert len(spawned) == 2
    # reused by a second call, and reaped by parallel._shutdown()
    assert parallel.map_jobs(operator.add, jobs) == [10 + i for i in range(7)]
    assert len(spawned) == 2
    parallel._shutdown()
    assert _all_reaped(spawned)


def test_printing_in_a_worker_does_not_corrupt_results(spawned):
    assert parallel.map_jobs(print, [("a",), ("b",), ("c",)]) == [None] * 3
    assert len(spawned) == 2


def test_workers_run_under_the_callers_numpy_error_state(spawned):
    with np.errstate(over="ignore", invalid="raise", divide="warn"):
        caller = np.geterr()
        assert parallel.map_jobs(np.geterr, [(), ()]) == [caller, caller]
    assert len(spawned) == 2


def test_worker_error_is_the_lowest_failing_job_of_the_serial_path(spawned):
    ok = np.full((2, 2), 0.5)
    # jobs 1 and 2 fail and land in different workers (round-robin)
    jobs = [(SP, ok, 0.0), (SP, np.array([[0.5, -1.0]]), 0.0),
            (SP, np.array([[-2.0]]), 0.0), (SP, ok, 0.0)]
    with pytest.raises(DomainViolationError) as serial:
        for job in jobs:
            invert(*job)
    with pytest.raises(DomainViolationError) as pooled:
        parallel.map_jobs(invert, jobs)
    assert (pooled.value.position, pooled.value.value) == ((0, 1), -1.0)
    assert (pooled.value.position, pooled.value.value) == (
        serial.value.position, serial.value.value)
    assert str(pooled.value) == str(serial.value)
    assert len(spawned) == 2
    assert _all_reaped(spawned)


def test_cv_search_worker_error_matches_the_serial_error(spawned, monkeypatch):
    ds, _ = gen_spiral(3, 20, noise=0.2, seed=1)
    cfg = TrainConfig(InitScheme.random(0, 1.0), clamp_margin=0.0)
    errors = []
    for cores in (1, 2):
        monkeypatch.setattr(parallel, "_usable_cores", lambda: cores)
        with pytest.raises(DomainViolationError) as info:
            cv_search(ds, ["h-q"], [2, 4], CvPlan(3, 2, 0), cfg, SP)
        errors.append(info.value)
    serial, pooled = errors
    assert type(pooled) is type(serial)
    assert (pooled.position, pooled.value) == (serial.position, serial.value)
    assert str(pooled) == str(serial)
    assert len(spawned) == 2
    assert _all_reaped(spawned)


def test_workers_are_reaped_on_interrupt(spawned, monkeypatch):
    def interrupted(proc):
        raise KeyboardInterrupt

    monkeypatch.setattr(parallel, "_collect", interrupted)
    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        parallel.map_jobs(time.sleep, [(60,), (60,)])
    # the sleeping workers were killed, not waited for
    assert time.monotonic() - start < 30
    assert len(spawned) == 2
    assert _all_reaped(spawned)


def test_a_dead_worker_raises_a_pinvnet_error(spawned):
    # os._exit ends the worker before it writes its results
    with pytest.raises(PinvnetError, match="exited with code 3"):
        parallel.map_jobs(os._exit, [(3,), (3,)])
    assert _all_reaped(spawned)


@pytest.mark.parametrize("calls", [3, 200])
def test_calls_reuse_the_same_two_workers(spawned, calls):
    for k in range(calls):
        assert parallel.map_jobs(operator.mul, [(i, k) for i in range(5)]) == [
            i * k for i in range(5)]
    assert len(spawned) == 2
    assert parallel._pool == spawned
    assert all(proc.poll() is None for proc in spawned)


def test_a_worker_killed_between_calls_is_replaced(spawned):
    jobs = [(i, 3) for i in range(5)]
    first = parallel.map_jobs(operator.mul, jobs)
    spawned[0].kill()
    spawned[0].wait(timeout=30)
    assert parallel.map_jobs(operator.mul, jobs) == first
    assert len(spawned) == 3
    assert parallel._pool == [spawned[2], spawned[1]]


def test_calls_from_two_threads_take_turns(spawned):
    results = {}

    def call(k):
        results[k] = [parallel.map_jobs(operator.mul, [(i, k) for i in range(5)])
                      for _ in range(20)]

    threads = [threading.Thread(target=call, args=(k,)) for k in (3, 7)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert results == {k: [[i * k for i in range(5)]] * 20 for k in (3, 7)}
    assert len(spawned) == 2


# Runs cv_search, or the cli with the given arguments, on two forced cores
# and prints the pids of the workers it leaves in the pool.
_EXITS = """
import sys
from pinvnet import cli, parallel
from pinvnet.activations import ActivationKind
from pinvnet.datasets import CvPlan, cv_search, gen_spiral
from pinvnet.training import InitScheme, TrainConfig

parallel._usable_cores = lambda: 2
code = 0
if sys.argv[1:]:
    code = cli.main(sys.argv[1:])
else:
    ds, _ = gen_spiral(3, 20, noise=0.2, seed=1)
    cv_search(ds, ["h-q"], [2, 4], CvPlan(3, 1, 0),
              TrainConfig(InitScheme.random(0, 0.5)), ActivationKind.softplus08())
print("workers", *(proc.pid for proc in parallel._pool))
sys.exit(code)
"""


@pytest.mark.parametrize("argv", [
    [],
    ["cv", "--data", str(ROOT / "tests" / "data" / "iris_like.csv"),
     "--grid", "1,2,3", "--folds", "3", "--trials", "1", "--out", "run"],
], ids=["cv_search", "cli-cv"])
def test_no_worker_outlives_its_caller(tmp_path, argv):
    done = subprocess.run([sys.executable, "-c", _EXITS, *argv], cwd=tmp_path,
                          env=_env(), capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    tag, *pids = done.stdout.splitlines()[-1].split()
    assert tag == "workers" and len(pids) == 2
    for pid in pids:
        with pytest.raises(ProcessLookupError):
            os.kill(int(pid), 0)


# Forks after a call. The child waits for the parent to exit before its
# own call, so the parent's exit is prompt only if the child let go of the
# parent's workers at the fork.
_FORKS = """
import operator, os, signal
from pinvnet import parallel

signal.alarm(60)  # neither process outlives a hang by more than this
parallel._usable_cores = lambda: 2
jobs = [(i, 7) for i in range(4)]
assert parallel.map_jobs(operator.mul, jobs) == [0, 7, 14, 21]
hold_r, hold_w = os.pipe()
if os.fork() == 0:
    signal.alarm(60)
    os.close(hold_w)
    inherited = len(parallel._pool)
    os.read(hold_r, 1)  # returns once the parent has exited
    ok = parallel.map_jobs(operator.mul, jobs) == [0, 7, 14, 21]
    print("child", inherited, ok, *(p.pid for p in parallel._pool), flush=True)
    os._exit(0)
print("parent", *(p.pid for p in parallel._pool), flush=True)
"""


def test_a_forked_child_starts_its_own_workers_and_the_parent_exits_promptly():
    proc = subprocess.Popen([sys.executable, "-c", _FORKS], env=_env(),
                            stdout=subprocess.PIPE, text=True)
    try:
        parent = proc.stdout.readline().split()
        start = time.monotonic()
        assert proc.wait(timeout=60) == 0
        assert time.monotonic() - start < parallel._EXIT_TIMEOUT_S
        child = proc.stdout.read().split()  # the child's line, once it exits
    finally:
        proc.kill()
        proc.wait()
        proc.stdout.close()
    assert parent[0] == "parent" and len(parent[1:]) == 2
    assert child[:3] == ["child", "0", "True"] and len(child[3:]) == 2
    assert not set(parent[1:]) & set(child[3:])


class _Inbox(io.BytesIO):
    def __init__(self, worker):
        super().__init__()
        self.worker = worker

    def flush(self):
        if self.getvalue():
            self.worker.serve(self.getvalue())
            self.seek(0)
            self.truncate()


class _InProcessWorker:
    """Stands in for a worker Popen: runs parallel._serve on each message
    as its stdin is flushed, without starting a process, and exits once its
    stdin is closed."""

    pid = 0

    def __init__(self):
        self.stdin = _Inbox(self)
        self.stdout = io.BytesIO()
        self.returncode = None
        self.messages = []

    def serve(self, data):
        self.messages.append([index for index, _ in pickle.loads(data)[1]])
        out = io.BytesIO()
        parallel._serve(io.BytesIO(data), out)
        self.stdout = io.BytesIO(out.getvalue())

    def poll(self):
        return self.returncode

    def wait(self, timeout=None):
        if self.returncode is None and self.stdin.closed:
            self.returncode = 0
        return self.returncode

    def kill(self):
        self.returncode = -9


@pytest.mark.parametrize(
    "cores, jobs, expected",
    [(3, 10, 3), (4, 2, 2), (4, 1, 1), (1, 10, 1), (2, 0, 1)],
)
def test_worker_count_is_capped_by_cores_and_jobs(monkeypatch, fresh_pool, cores,
                                                  jobs, expected):
    started = []

    def fake_spawn():
        started.append(_InProcessWorker())
        return started[-1]

    monkeypatch.setattr(parallel, "_usable_cores", lambda: cores)
    monkeypatch.setattr(parallel, "_spawn", fake_spawn)
    work = [(i, 3) for i in range(jobs)]
    assert parallel.map_jobs(operator.mul, work) == [3 * i for i in range(jobs)]
    assert len(started) == (0 if expected == 1 else expected)
    # jobs are dealt round-robin
    for w, worker in enumerate(started):
        assert worker.messages == [list(range(w, jobs, expected))]


@pytest.mark.parametrize(
    "files, cores",
    [({"cpu.max": "200000 100000\n"}, 2),
     ({"cpu.max": "150000 100000\n"}, 2),
     ({"cpu.max": "50000 100000\n"}, 1),
     ({"cpu.max": "max 100000\n"}, None),
     ({"quota": "300000\n", "period": "100000\n"}, 3),
     ({"quota": "-1\n", "period": "100000\n"}, None),
     ({}, None)],
)
def test_cgroup_cpu_quota_is_read_from_v2_or_v1_files(tmp_path, monkeypatch,
                                                      files, cores):
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    monkeypatch.setattr(parallel, "_QUOTA_FILES", (
        (str(tmp_path / "cpu.max"),),
        (str(tmp_path / "quota"), str(tmp_path / "period"))))
    assert parallel._quota_cores() == cores


@pytest.mark.parametrize("quota, expected", [(None, 8), (3, 3), (16, 8)])
def test_usable_cores_are_capped_at_the_cpu_quota(monkeypatch, quota, expected):
    monkeypatch.setattr(parallel.os, "sched_getaffinity", lambda pid: set(range(8)),
                        raising=False)
    monkeypatch.setattr(parallel, "_quota_cores", lambda: quota)
    assert parallel._usable_cores() == expected


def test_dataset_unpickles_through_its_constructor():
    ds, _ = gen_spiral(3, 10, seed=0)
    back = pickle.loads(pickle.dumps(ds))
    assert np.array_equal(back.x, ds.x) and np.array_equal(back.y, ds.y)
    assert (back.class_labels, back.kind) == (ds.class_labels, ds.kind)
    assert not back.x.flags.writeable and not back.y.flags.writeable
