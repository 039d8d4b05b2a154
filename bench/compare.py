"""Compare two saved benchmark outputs (the stdout of bench/run.py).

    python3 bench/compare.py before.txt after.txt

Prints each metric of both runs with the after/before ratio, and flags the
comparison when the two runs' thread environments differ (effective BLAS
thread count, any *_NUM_THREADS variable, or the CPUs available), since
BLAS threading moves these timings by tens of percent.
"""
from __future__ import annotations

import json
import sys

from environment import thread_env


def load(path):
    env, result = None, None
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("env "):
                env = json.loads(line[4:])
            elif line.startswith("{"):
                result = json.loads(line)
    if env is None or result is None:
        raise SystemExit(f"{path}: no env line or result line")
    return env, result


def main(argv):
    if len(argv) != 2:
        raise SystemExit(__doc__)
    (env_a, res_a), (env_b, res_b) = load(argv[0]), load(argv[1])
    if env_a["workload"] != env_b["workload"]:
        print(f"FLAG: workloads differ: {env_a['workload']} vs {env_b['workload']}")
    if thread_env(env_a) != thread_env(env_b):
        print(f"FLAG: thread environments differ: {thread_env(env_a)} vs {thread_env(env_b)}")
    for name, ma in res_a["metrics"].items():
        mb = res_b["metrics"].get(name)
        if mb is None:
            print(f"{name:28s} {ma['value']:.6g} -> (missing)")
            continue
        ratio = mb["value"] / ma["value"] if ma["value"] else float("nan")
        print(f"{name:28s} {ma['value']:.6g} -> {mb['value']:.6g} {ma['unit']} (x{ratio:.3f})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
