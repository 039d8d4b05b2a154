"""The four benchmark workloads.

Each workload makes its inputs from the workload seed, runs one op on
them, checks the op's outputs and digests them for bit-for-bit
comparison. Every op gets a fresh input derived from (seed, op index),
so no op repeats an earlier one within a run. The warm-up op of the set-up
runs a fixed reference input instead, whose thread-stable outputs are
compared with ``reference.json``.

Library functions are called through their module attribute
(``pinvnet.training.train``, not a name imported once), so the tracer's
wrappers see every call.

Checks gate only on values that agree at 1 and 2 BLAS threads; values
that rest on roundoff (ill-posed SSEs, test accuracies, the depth-2..4
variance means) are reported, not gated.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import shutil
import sys
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import pinvnet  # noqa: E402
import pinvnet.analysis  # noqa: E402
import pinvnet.cli  # noqa: E402
import pinvnet.datasets  # noqa: E402
import pinvnet.network  # noqa: E402
import pinvnet.training  # noqa: E402

REFERENCE_FILE = BENCH_DIR / "reference.json"
REFERENCE_KEY = 20181120  # seed material of the reference input


def derive_seed(*key) -> int:
    """A 32-bit seed from an integer key; equal keys give equal seeds."""
    return int(np.random.SeedSequence(list(key)).generate_state(1)[0])


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p if isinstance(p, bytes) else repr(p).encode())
    return h.hexdigest()


class Workload:
    """Base: subclasses set name and op_text and implement the hooks."""

    name = ""
    op_text = ""
    # highest percentile that keeps about ten samples beyond it at the
    # op counts a 25 s run gets, but never the median itself
    tail_pct = 75

    def __init__(self, seed: int):
        self.seed = seed

    def input(self, index: int):
        """Input of measured op ``index``."""
        return self.make_input(derive_seed(self.seed, index))

    def reference_input(self):
        return self.make_input(derive_seed(REFERENCE_KEY))

    def make_input(self, s: int):
        raise NotImplementedError

    def op(self, inp):
        raise NotImplementedError

    def collect(self, inp, raw):
        """Turn the op's return value into a result; runs untimed."""
        return raw

    def check(self, inp, result) -> list:
        """Failed checks, as text; empty when the result is correct."""
        raise NotImplementedError

    def digest(self, result) -> str:
        raise NotImplementedError

    def reference_record(self, result) -> dict:
        """Thread-stable values of the reference input, as stored."""
        raise NotImplementedError

    def check_reference(self, result, expected: dict) -> list:
        got = self.reference_record(result)
        return [f"reference {k}: expected {expected[k]!r}, got {got[k]!r}"
                for k in expected if got.get(k) != expected[k]]

    def report(self, inp, result) -> dict:
        """Roundoff-fragile values, printed and never gated."""
        return {}

    def close(self):
        pass


class VarianceMC(Workload):
    name = "variance_mc"
    op_text = ("mc_output_variance at m=100, d=10, depths 1..8, exp:1e-4, "
               "over 8 trials")
    tail_pct = 90
    TRIALS = 8
    # Depth 1 solves a well-posed 100x10 system and depths 5..8 reach the
    # fixed point H = exp(1e-4 I) elementwise, so both have closed-form
    # oracles. Depths 2..4 are driven by roundoff in near-singular designs.
    ORACLE_RTOL = {1: 1e-9, 5: 1e-6, 6: 1e-6, 7: 1e-6, 8: 1e-6}

    def __init__(self, seed):
        super().__init__(seed)
        m = 100
        self.fixed_point = np.ones((m, m)) + math.expm1(1e-4) * np.eye(m)

    def make_input(self, s):
        return pinvnet.analysis.VarianceConfig(
            m=100, d=10, trials=self.TRIALS, max_depth=8,
            activation=pinvnet.ActivationKind.exp_scaled(1e-4), seed=s,
        )

    def op(self, cfg):
        return pinvnet.analysis.mc_output_variance(cfg)

    def oracle(self, cfg):
        """Depth-1 and fixed-point means from the same per-trial draws,
        in the draw order mc_output_variance documents."""
        lo, hi = cfg.input_range
        v1, vf = [], []
        for child in np.random.default_rng(cfg.seed).spawn(cfg.trials):
            x = child.uniform(lo, hi, (cfg.m, cfg.d))
            eps = child.uniform(-1.0, 1.0, cfg.m) * cfg.noise_scale
            x0_d = child.uniform(lo, hi, cfg.d)
            x0_m = child.uniform(lo, hi, cfg.m)
            v1.append(float(x0_d @ np.linalg.lstsq(x, eps, rcond=None)[0]) ** 2)
            vf.append(float(x0_m @ np.linalg.solve(self.fixed_point, eps)) ** 2)
        return float(np.mean(v1)), float(np.mean(vf))

    def check(self, cfg, rep):
        means = rep.per_depth_mean
        if len(means) != 8 or not all(math.isfinite(v) and v > 0 for v in means):
            return [f"per-depth means not 8 finite positives: {means}"]
        first, fixed = self.oracle(cfg)
        fails = []
        for depth, rtol in self.ORACLE_RTOL.items():
            want = first if depth == 1 else fixed
            if abs(means[depth - 1] - want) > rtol * want:
                fails.append(f"depth {depth} mean {means[depth - 1]!r} vs "
                             f"oracle {want!r} (rtol {rtol})")
        return fails

    def digest(self, rep):
        return _digest(rep.per_depth_mean, rep.per_depth_std, rep.x0_dims)

    def reference_record(self, rep):
        return {"per_depth_mean": list(rep.per_depth_mean)}

    def check_reference(self, rep, expected):
        fails = []
        for depth, rtol in self.ORACLE_RTOL.items():
            want = expected["per_depth_mean"][depth - 1]
            got = rep.per_depth_mean[depth - 1]
            if abs(got - want) > rtol * abs(want):
                fails.append(f"reference depth {depth}: {got!r} vs {want!r}")
        return fails

    def report(self, cfg, rep):
        return {"depth2_4_means": rep.per_depth_mean[1:4]}


def spiral(arms: int, per_arm: int, seed: int, noise: float = 0.3):
    """Planar multi-arm spiral made by the benchmark itself; odd samples of
    each arm train, even ones test. Returns (x_tr, labels_tr, x_te, labels_te)."""
    rng = np.random.default_rng(seed)
    i = np.arange(per_arm)
    radius = i / per_arm
    pts, labels = [], []
    for a in range(arms):
        theta = (2 * np.pi * i / per_arm + 2 * np.pi * a / arms
                 + noise * rng.uniform(size=per_arm))
        pts.append(np.column_stack([radius * np.cos(theta), radius * np.sin(theta)]))
        labels.append(np.full(per_arm, a))
    x, lab = np.vstack(pts), np.concatenate(labels)
    odd = np.tile(i % 2 == 1, arms)
    return x[odd], lab[odd], x[~odd], lab[~odd]


def softplus08_net(weights, x):
    """Forward pass of a bias-augmented softplus08 chain, written out here
    as the oracle for the library's."""
    a = np.hstack([np.ones((x.shape[0], 1)), x])
    for w in weights:
        a = np.logaddexp(math.log(0.8), a @ w)
    return a


class TrainDepth(Workload):
    name = "train_depth"
    op_text = ("train + forward of random-init 200x(d-1)-4 softplus08 nets "
               "for d = 2, 4, 6, 8, 10 on a 4-arm spiral, 200 train / 200 test")
    DEPTHS = (2, 4, 6, 8, 10)
    # Train SSE is not gated: the last design is a square 200x200 matrix
    # and its SSE ranges from 1e-18 to ~4 with roundoff. The gate is that
    # the reported SSE and the forward outputs follow from the weights.
    RTOL = 1e-9
    REF_SSE_RTOL = 1e-6

    def __init__(self, seed):
        super().__init__(seed)
        act = pinvnet.ActivationKind.softplus08()
        self.specs = {
            d: pinvnet.network.build_spec("-".join(["200"] * (d - 1) + ["4"]), 2, act)
            for d in self.DEPTHS
        }

    def make_input(self, s):
        x_tr, lab_tr, x_te, lab_te = spiral(4, 100, s)
        y_tr = np.where(np.arange(4) == lab_tr[:, None], 0.9, 0.1)
        cfg = pinvnet.training.TrainConfig(
            pinvnet.training.InitScheme.random(derive_seed(s, 1), 1.0))
        return x_tr, y_tr, x_te, lab_te, cfg

    def op(self, inp):
        x_tr, y_tr, x_te, _, cfg = inp
        out = []
        for d in self.DEPTHS:
            spec = self.specs[d]
            rep = pinvnet.training.train(spec, x_tr, y_tr, cfg)
            out.append((rep, pinvnet.network.forward(spec, rep.weights, x_te)))
        return out

    def check(self, inp, result):
        fails = []
        for d, (rep, pred) in zip(self.DEPTHS, result):
            counts = rep.clamped_entry_counts
            if len(counts) != d or counts[-1] != 0 or min(counts) < 0:
                fails.append(f"d={d}: clamped counts {counts}")
            ws = [w.array for w in rep.weights.weights]
            if not np.allclose(pred.array, softplus08_net(ws, inp[2]),
                               rtol=self.RTOL, atol=0.0):
                fails.append(f"d={d}: forward output does not follow from the weights")
            resid = softplus08_net(ws, inp[0]) - inp[1]
            sse = float(np.sum(resid * resid))
            if not abs(rep.train_sse - sse) <= self.RTOL * max(sse, 1e-3):
                fails.append(f"d={d}: train_sse {rep.train_sse!r}, weights give {sse!r}")
        return fails

    def digest(self, result):
        parts = []
        for rep, pred in result:
            parts += [w.array.tobytes() for w in rep.weights.weights]
            parts += [pred.array.tobytes(), rep.clamped_entry_counts, rep.train_sse]
        return _digest(*parts)

    def reference_record(self, result):
        record = {f"d{d}_clamped": list(rep.clamped_entry_counts)
                  for d, (rep, _) in zip(self.DEPTHS, result)}
        # the d = 2 net cannot interpolate and its SSE is well-posed
        record["d2_train_sse"] = result[0][0].train_sse
        return record

    def check_reference(self, result, expected):
        expected = dict(expected)
        want = expected.pop("d2_train_sse")
        got = result[0][0].train_sse
        fails = super().check_reference(result, expected)
        if abs(got - want) > self.REF_SSE_RTOL * want:
            fails.append(f"reference d2_train_sse: expected {want!r}, got {got!r}")
        return fails

    def report(self, inp, result):
        lab_te = inp[3]
        return {f"d{d}": {"train_sse": rep.train_sse,
                          "test_accuracy": float(np.mean(pred.array.argmax(1) == lab_te))}
                for d, (rep, pred) in zip(self.DEPTHS, result)}


class CvIris(Workload):
    name = "cv_iris"
    op_text = ("one outer trial of cv_search on tests/data/iris_like.csv, "
               "template h-q, the CLI's 12-value grid, 10 stratified folds")
    MIN_ACCURACY = 0.85

    def __init__(self, seed):
        super().__init__(seed)
        self.data = pinvnet.datasets.load_csv(ROOT / "tests" / "data" / "iris_like.csv")
        self.grid = list(pinvnet.cli.DEFAULT_GRID)
        self.act = pinvnet.ActivationKind.softplus08()

    def make_input(self, s):
        plan = pinvnet.datasets.CvPlan(folds=10, trials=1, seed=s, stratified=True)
        cfg = pinvnet.training.TrainConfig(pinvnet.training.InitScheme.random(s, 1.0))
        return plan, cfg

    def op(self, inp):
        plan, cfg = inp
        return pinvnet.datasets.cv_search(self.data, ["h-q"], self.grid, plan,
                                          cfg, self.act)

    def check(self, inp, res):
        fails = []
        hs = [h for _, h in res.selections]
        votes = {h: hs.count(h) for h in hs}
        mode = min(votes, key=lambda h: (-votes[h], h))
        if len(hs) != 10 or res.h != mode or res.h not in self.grid:
            fails.append(f"selected h {res.h} is not the vote of {hs}")
        grid = np.array(res.accuracy_grid)
        if grid.shape != (1, 10) or not ((grid >= 0) & (grid <= 1)).all():
            fails.append(f"accuracy grid {res.accuracy_grid}")
        if not res.mean_accuracy >= self.MIN_ACCURACY:
            fails.append(f"mean accuracy {res.mean_accuracy} < {self.MIN_ACCURACY}")
        return fails

    def digest(self, res):
        return _digest(res.h, res.template, res.mean_accuracy,
                       res.per_trial_accuracies, res.accuracy_grid, res.selections)

    def reference_record(self, res):
        return {"h": res.h, "selections": [h for _, h in res.selections]}

    def report(self, inp, res):
        return {"mean_accuracy": res.mean_accuracy}


class SpiralCli(Workload):
    name = "spiral_cli"
    op_text = ("three in-process `pinvnet train --dump-weights` runs on a "
               "6-arm spiral CSV (300 train rows): 30-50-300-6 --c 0.5 "
               "--tolerance 0, banded 30-50^r3-300-6, data_matrix 300-300-6")
    tail_pct = 80
    RUNS = (
        ("random", ["--structure", "30-50-300-6", "--c", "0.5", "--tolerance", "0"]),
        ("banded", ["--structure", "30-50^r3-300-6"]),
        ("data_matrix", ["--structure", "300-300-6", "--init", "data_matrix"]),
    )
    SHAPES = {
        "random": [(3, 30), (30, 50), (50, 300), (300, 6)],
        "banded": [(3, 30), (30, 50), (50, 300), (300, 6)],
        "data_matrix": [(3, 300), (300, 300), (300, 6)],
    }
    # The random and banded nets interpolate their 300 rows (worst SSE seen
    # over 300 datasets: 7e-16 and 4e-10). The data_matrix net's SSE exceeds
    # 1e-6 on ~1% of datasets with roundoff, so it is gated instead on its
    # first weight, pinv([1 x]) of a well-conditioned 300x3 matrix.
    INTERPOLATING = ("random", "banded")
    SSE_LIMIT = 1e-6
    PINV_RTOL = 1e-8

    def __init__(self, seed, work_dir: Path):
        super().__init__(seed)
        self.work = work_dir
        self.work.mkdir(parents=True, exist_ok=True)
        self._pinv_cache = {}

    def _quiet(self, argv):
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            return pinvnet.cli.main(argv)

    def make_input(self, s):
        data = self.work / f"data_{s}"
        if not (data / "spiral_train.csv").exists():
            rc = self._quiet(["synth", "spiral", "--arms", "6", "--per-arm", "100",
                              "--seed", str(s), "--out", str(data)])
            if rc != 0:
                raise RuntimeError(f"synth spiral exited {rc}")
        return data / "spiral_train.csv", derive_seed(s, 1)

    def input(self, index):
        # one dataset per run, fresh placeholders per op
        path, _ = self.make_input(derive_seed(self.seed))
        return path, derive_seed(self.seed, index)

    def op(self, inp):
        path, s = inp
        return [
            self._quiet(["train", "--data", str(path), *flags, "--seed", str(s),
                         "--dump-weights", "--out", str(self.work / tag)])
            for tag, flags in self.RUNS
        ]

    def collect(self, inp, rcs):
        files = {}
        for tag, _ in self.RUNS:
            for f in sorted((self.work / tag).iterdir()):
                files[f"{tag}/{f.name}"] = f.read_bytes()
        return rcs, files

    def check(self, inp, result):
        rcs, files = result
        fails = [f"{tag}: exit {rc}" for (tag, _), rc in zip(self.RUNS, rcs) if rc]
        for tag, shapes in self.SHAPES.items():
            rep = json.loads(files[f"{tag}/train_report.json"])
            counts = rep["clamped_entry_counts"]
            if len(counts) != len(shapes) or counts[-1] != 0:
                fails.append(f"{tag}: clamped counts {counts}")
            if tag in self.INTERPOLATING and not (
                    rep["train_sse"] < self.SSE_LIMIT and rep["train_accuracy"] == 1.0):
                fails.append(f"{tag}: train_sse {rep['train_sse']!r}, "
                             f"accuracy {rep['train_accuracy']!r}")
            for k, shape in enumerate(shapes, start=1):
                raw = files.get(f"{tag}/weights_{k:02d}.csv")
                w = None if raw is None else np.loadtxt(io.BytesIO(raw), delimiter=",", ndmin=2)
                if w is None or w.shape != shape or not np.isfinite(w).all():
                    fails.append(f"{tag}: weights_{k:02d}.csv is not {shape}")
                elif tag == "banded" and k == 2 and (np.count_nonzero(w, axis=0) > 3).any():
                    fails.append("banded: a layer-2 column has more than 3 nonzeros")
                elif tag == "data_matrix" and k == 1:
                    if any(counts):
                        fails.append(f"data_matrix: clamped counts {counts}")
                    want = self._design_pinv(inp[0])
                    if not np.allclose(w, want, rtol=0.0,
                                       atol=self.PINV_RTOL * np.abs(want).max()):
                        fails.append("data_matrix: weights_01 is not pinv([1 x])")
        return fails

    def _design_pinv(self, path):
        if path not in self._pinv_cache:
            x = np.loadtxt(path, delimiter=",", usecols=(0, 1), ndmin=2)
            self._pinv_cache[path] = np.linalg.pinv(np.hstack([np.ones((len(x), 1)), x]))
        return self._pinv_cache[path]

    def digest(self, result):
        rcs, files = result
        return _digest(rcs, *[(k, v) for k, v in sorted(files.items())])

    def reference_record(self, result):
        _, files = result
        return {f"{tag}_clamped": json.loads(files[f"{tag}/train_report.json"])
                ["clamped_entry_counts"] for tag, _ in self.RUNS}

    def report(self, inp, result):
        _, files = result
        return {tag: json.loads(files[f"{tag}/train_report.json"])["train_sse"]
                for tag, _ in self.RUNS}

    def close(self):
        shutil.rmtree(self.work, ignore_errors=True)


WORKLOADS = {w.name: w for w in (VarianceMC, TrainDepth, CvIris, SpiralCli)}


def make(name: str, seed: int, work_dir: Path) -> Workload:
    cls = WORKLOADS[name]
    return cls(seed, work_dir) if cls is SpiralCli else cls(seed)


def load_reference() -> dict:
    return json.loads(REFERENCE_FILE.read_text(encoding="utf-8"))


def write_reference(work_dir: Path) -> None:
    """Regenerate reference.json from the reference input of every workload."""
    out = {}
    for name in WORKLOADS:
        wl = make(name, 0, work_dir)
        try:
            inp = wl.reference_input()
            out[name] = wl.reference_record(wl.collect(inp, wl.op(inp)))
        finally:
            wl.close()
    REFERENCE_FILE.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n",
                              encoding="utf-8")


if __name__ == "__main__":
    # python3 bench/workloads.py  -- rewrites bench/reference.json
    write_reference(BENCH_DIR / "_work_reference")
