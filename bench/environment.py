"""What a benchmark result depends on besides the code: library versions,
the BLAS thread count, the machine and the commit."""
from __future__ import annotations

import ctypes
import os
import platform
from pathlib import Path

import numpy as np

_THREAD_GETTERS = ("openblas_get_num_threads", "openblas_get_num_threads64_",
                   "scipy_openblas_get_num_threads", "scipy_openblas_get_num_threads64_")
_CONFIG_GETTERS = ("openblas_get_config", "openblas_get_config64_",
                   "scipy_openblas_get_config", "scipy_openblas_get_config64_")


def _openblas():
    """The OpenBLAS library this process has loaded, or None."""
    try:
        with open("/proc/self/maps", encoding="ascii", errors="replace") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        if ".so" in path:
            try:
                return ctypes.CDLL(path)
            except OSError:
                continue
    return None


def _call(lib, names, restype):
    for name in names:
        fn = getattr(lib, name, None) if lib is not None else None
        if fn is not None:
            fn.restype = restype
            return fn()
    return None


def _git_commit(root: Path):
    """HEAD's commit read from .git, or None outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def record(root: Path, workload: str, seed: int) -> dict:
    lib = _openblas()
    config = _call(lib, _CONFIG_GETTERS, ctypes.c_char_p)
    return {
        "workload": workload,
        "seed": seed,
        "git_commit": _git_commit(root),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_config": config.decode(errors="replace") if config else None,
        "blas_threads": _call(lib, _THREAD_GETTERS, ctypes.c_int),
        "num_threads_env": {k: v for k, v in sorted(os.environ.items())
                            if k.endswith("_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
    }


def thread_env(env: dict) -> tuple:
    """The parts of an environment record that set how BLAS threads."""
    return (env.get("blas_threads"), tuple(sorted(env.get("num_threads_env", {}).items())),
            env.get("nproc"))
