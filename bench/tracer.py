"""Outside-in span tracer for the pinvnet benchmark.

The tracer replaces public functions of the library with timing wrappers,
each installed at the name its caller looks it up by at call time (for
example ``pinvnet.training.forward``, which ``train`` calls, and
``pinvnet.datasets.forward``, which ``cv_search`` calls). No library file
changes. Every wrapped call records one span: name, start, end, the index
of the enclosing span and the op id. Spans live in memory and are folded
into per-op totals when an op ends.

Calls run on one thread, so spans nest strictly and a span's self time is
its duration minus the durations of its direct children.

A target that a later refactor removes or renames is reported absent; it
does not fail the run, and the metrics fed by it read 0.
"""
from __future__ import annotations

import functools
import hashlib
import importlib
import math
import os
import time
from collections import Counter, defaultdict

# (span name, module, attribute path). The attribute is patched on the
# object that owns it, so callers that look it up at call time see the
# wrapper.
TARGETS = (
    ("linalg.svd", "numpy.linalg", "svd"),
    ("linalg.solve", "numpy.linalg", "solve"),
    ("linalg.matrix_new", "pinvnet.linalg", "Matrix.__init__"),
    ("linalg.write_matrix_csv", "pinvnet.cli", "write_matrix_csv"),
    ("activations.apply", "pinvnet.training", "_apply"),
    ("activations.apply", "pinvnet.network", "apply"),
    ("activations.apply", "pinvnet.analysis", "apply"),
    ("activations.invert", "pinvnet.training", "invert_with_count"),
    ("network.forward", "pinvnet.training", "forward"),
    ("network.forward", "pinvnet.datasets", "forward"),
    ("network.forward", "pinvnet.cli", "forward"),
    ("network.forward", "pinvnet.network", "forward"),
    ("training.train", "pinvnet.training", "train"),
    ("training.train", "pinvnet.datasets", "train"),
    ("training.train", "pinvnet.cli", "train"),
    ("training.solve_masked_layer", "pinvnet.training", "solve_masked_layer"),
    ("analysis.mc_output_variance", "pinvnet.analysis", "mc_output_variance"),
    ("datasets.cv_search", "pinvnet.datasets", "cv_search"),
    ("datasets.load_csv", "pinvnet.cli", "load_csv"),
    ("cli.main", "pinvnet.cli", "main"),
)


def svd_gflop(m: int, n: int) -> float:
    """Computed, not measured: Golub & Van Loan's count for a thin SVD
    returning U1, S and V, 6*m*n^2 + 20*n^3 flops with m >= n."""
    if m < n:
        m, n = n, m
    return (6.0 * m * n * n + 20.0 * n ** 3) / 1e9


def _note_svd(tr, args, kwargs, result):
    a = args[0]
    key = hashlib.blake2b(a.tobytes(), digest_size=16)
    key.update(repr((a.shape, a.dtype.str)).encode())
    tr.svd_inputs.add(key.digest())
    if a.ndim == 2:
        tr.notes["svd_gflop"] += svd_gflop(*a.shape)


def _note_csv(tr, args, kwargs, result):
    path = args[1] if len(args) > 1 else kwargs["path"]
    tr.notes["csv_write_bytes"] += os.path.getsize(path)


def _note_train(tr, args, kwargs, result):
    tr.notes["clamped_entries"] += sum(result.clamped_entry_counts)


def _note_invert(tr, args, kwargs, result):
    y = args[1] if len(args) > 1 else kwargs["y"]
    tr.notes["inverted_entries"] += math.prod(y.shape)


NOTES = {
    "linalg.svd": _note_svd,
    "linalg.write_matrix_csv": _note_csv,
    "training.train": _note_train,
    "activations.invert": _note_invert,
}


def _resolve(module_name: str, attr_path: str):
    """(owner, attribute name) for a dotted attribute, or None if absent."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, leaf = attr_path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if not hasattr(owner, leaf):
        return None
    return owner, leaf


def self_times(spans):
    """Per-span self time: duration minus the durations of direct children.

    ``spans`` is a list of [name, start, end, parent_index, op] records in
    the order the calls started; parent_index is -1 for a root span.
    """
    child = [0.0] * len(spans)
    for rec in spans:
        if rec[3] >= 0:
            child[rec[3]] += rec[2] - rec[1]
    return [rec[2] - rec[1] - c for rec, c in zip(spans, child)]


def aggregate(spans):
    """Fold one op's spans into {name: [calls, total_s, self_s]} plus the
    number of fits, the training calls made directly by cv_search."""
    out = defaultdict(lambda: [0, 0.0, 0.0])
    fits = 0
    for rec, own in zip(spans, self_times(spans)):
        agg = out[rec[0]]
        agg[0] += 1
        agg[1] += rec[2] - rec[1]
        agg[2] += own
        if (rec[0] == "training.train" and rec[3] >= 0
                and spans[rec[3]][0] == "datasets.cv_search"):
            fits += 1
    return dict(out), fits


class Tracer:
    """Installs the wrappers on enter and restores the originals on exit."""

    def __init__(self, targets=TARGETS, clock=time.perf_counter):
        self.targets = targets
        self.clock = clock
        self.spans = []
        self.stack = []
        self.op = 0
        self.notes = Counter()
        self.svd_inputs = set()
        self.absent = []
        self._installed = []

    def wrap(self, name, fn):
        spans, stack, clock = self.spans, self.stack, self.clock
        note = NOTES.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if note is not None:
                note(self, args, kwargs, result)
            return result

        return wrapper

    def __enter__(self):
        self.absent = []
        for name, module_name, attr_path in self.targets:
            found = _resolve(module_name, attr_path)
            if found is None:
                self.absent.append(f"{module_name}.{attr_path}")
                continue
            owner, leaf = found
            original = getattr(owner, leaf)
            setattr(owner, leaf, self.wrap(name, original))
            self._installed.append((owner, leaf, original))
        return self

    def __exit__(self, *exc):
        while self._installed:
            owner, leaf, original = self._installed.pop()
            setattr(owner, leaf, original)
        return False

    def take_op(self):
        """Per-op summary of everything recorded since the last call; the
        span list and counters start empty for the next op."""
        by_name, fits = aggregate(self.spans)
        summary = {
            "spans": by_name,
            "fits": fits,
            "svd_distinct": len(self.svd_inputs),
            "notes": dict(self.notes),
        }
        self.spans.clear()
        self.notes.clear()
        self.svd_inputs.clear()
        self.op += 1
        return summary
