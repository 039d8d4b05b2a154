"""End-to-end acceptance checks.

Each test registers one verdict line (replayed after the run by the
conftest summary hook, so the lines survive pytest's capture) and then
asserts. Tolerances and runtime bounds are stated inline; configurations
are frozen so reruns are reproducible.
"""
import json
import time
from pathlib import Path

import numpy as np

import pinvnet as pn
from conftest import ACCEPTANCE_VERDICTS
from pinvnet.cli import main as cli_main

DATA_DIR = Path(__file__).parent / "data"
SP = pn.ActivationKind.softplus08()


def _verdict(n: int, ok: bool, detail: str) -> bool:
    line = f"CRITERION {n}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    ACCEPTANCE_VERDICTS.append(line)
    return ok


def test_criterion_01_penrose_conditions_on_random_matrices():
    # 100 matrices up to 200x100, every third one deliberately
    # rank-deficient; all four Penrose conditions within 1e-8
    start = time.perf_counter()
    rng = np.random.default_rng(0)
    worst = 0.0
    for i in range(100):
        m = int(rng.integers(1, 201))
        n = int(rng.integers(1, 101))
        a = rng.standard_normal((m, n))
        if i % 3 == 2 and min(m, n) > 1:
            r = int(rng.integers(1, min(m, n)))
            a = rng.standard_normal((m, r)) @ rng.standard_normal((r, n))
        worst = max(worst, pn.penrose_residual(a, pn.pinv(a)))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-8 and elapsed < 30.0
    assert _verdict(1, ok, f"worst residual {worst:.3e} (<=1e-8), "
                           f"{elapsed:.1f}s (<30s)")


def test_criterion_02_pinv_matches_normal_equation_oracles():
    # 25 tall full-column-rank and 25 wide full-row-rank matrices
    start = time.perf_counter()
    rng = np.random.default_rng(1)
    worst = 0.0
    for i in range(50):
        if i < 25:
            n = int(rng.integers(2, 40))
            m = n + int(rng.integers(1, 60))
            a = rng.standard_normal((m, n))
            oracle = np.linalg.solve(a.T @ a, a.T)
        else:
            m = int(rng.integers(2, 40))
            n = m + int(rng.integers(1, 60))
            a = rng.standard_normal((m, n))
            oracle = a.T @ np.linalg.inv(a @ a.T)
        p = pn.pinv(a)
        worst = max(worst, float(np.linalg.norm(p - oracle)
                                 / np.linalg.norm(oracle)))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-8
    assert _verdict(2, ok, f"worst relative error {worst:.3e} (<=1e-8), "
                           f"{elapsed:.1f}s")


def test_criterion_03_curve_benchmark_error_regimes():
    # 8-point curve fits at two init scales plus a deep narrow variant,
    # majority vote over seeds 0..9 per scenario
    start = time.perf_counter()
    trains, test = pn.gen_regression()
    x, y = trains[0].x, trains[0].y
    xt, yt = test.x, test.y
    wins = {"a": 0, "b": 0, "c": 0}
    for seed in range(10):
        spec2 = pn.build_spec("8-1", 1, SP, linear_output=False)
        sse2 = {}
        for c in (1.0, 0.1):
            rep = pn.train(spec2, x, y, pn.TrainConfig(
                pn.InitScheme.random(seed, c)))
            g = pn.forward(spec2, rep.weights, xt)
            sse2[c] = (rep.train_sse, pn.sse(g, yt))
        spec5 = pn.build_spec("1-1-1-8-1", 1, SP, linear_output=False)
        rep5 = pn.train(spec5, x, y, pn.TrainConfig(
            pn.InitScheme.random(seed, 0.1)))
        test5 = pn.sse(pn.forward(spec5, rep5.weights, xt), yt)
        if sse2[1.0][0] <= 1e-8 and sse2[1.0][1] >= 1e2:
            wins["a"] += 1
        if 1e-6 < sse2[0.1][0] < 1.0 and sse2[0.1][1] < sse2[1.0][1]:
            wins["b"] += 1
        if rep5.train_sse <= 1e-6 and test5 <= 1e3:
            wins["c"] += 1
    elapsed = time.perf_counter() - start
    ok = all(v > 5 for v in wins.values()) and elapsed < 60.0
    assert _verdict(
        3, ok,
        f"per-scenario majorities over 10 seeds: overfit c=1 {wins['a']}/10, "
        f"damped c=0.1 {wins['b']}/10, deep narrow {wins['c']}/10 "
        f"(each must exceed 5), {elapsed:.1f}s (<60s)")


def test_criterion_04_spiral_width_threshold():
    # 300 training points; width 300 interpolates, width 250 cannot
    start = time.perf_counter()
    hits = {300: 0, 250: 0}
    for seed in range(10):
        train_ds, _ = pn.gen_spiral(6, 100, noise=0.3, seed=seed)
        targets = pn.training_targets(train_ds, linear_output=False)
        for h3 in (300, 250):
            spec = pn.build_spec(f"30-50-{h3}-6", 2, SP, linear_output=False)
            cfg = pn.TrainConfig(pn.InitScheme.random(seed, 0.5),
                                 pn.PinvOptions.explicit(0.0))
            rep = pn.train(spec, train_ds.x, targets, cfg)
            if h3 == 300 and rep.train_sse <= 1e-6:
                hits[300] += 1
            if h3 == 250 and rep.train_sse >= 1e-2:
                hits[250] += 1
    elapsed = time.perf_counter() - start
    ok = hits[300] >= 9 and hits[250] >= 9 and elapsed < 120.0
    assert _verdict(4, ok, f"width 300 exact in {hits[300]}/10 (>=9), "
                           f"width 250 blocked in {hits[250]}/10 (>=9), "
                           f"{elapsed:.1f}s (<120s)")


def test_criterion_05_variance_decreases_with_depth():
    start = time.perf_counter()
    cfg = pn.VarianceConfig(seed=7)  # full-scale defaults, frozen seed
    report = pn.mc_output_variance(cfg)
    means = report.per_depth_mean
    drops = [means[k] >= means[k + 1] for k in range(1, 7)]
    elapsed = time.perf_counter() - start
    ok = all(drops) and elapsed < 300.0
    assert _verdict(5, ok, f"depth-2..8 means non-increasing: {all(drops)} "
                           f"(mean_2 {means[1]:.3e} -> mean_8 {means[7]:.3e}), "
                           f"{elapsed:.1f}s (<300s)")


def test_criterion_06_data_matrix_representation():
    # hidden width equals sample count; the projection chain interpolates
    start = time.perf_counter()
    worst = 0.0
    for t in range(20):
        rng = np.random.default_rng(1000 + t)
        x = rng.uniform(-1, 1, (40, 5))
        y = rng.uniform(-1, 1, (40, 3))
        assert np.unique(x, axis=0).shape[0] == 40
        spec = pn.build_spec("40-3", 5, SP, linear_output=True)
        rep = pn.train(spec, x, y, pn.TrainConfig(pn.InitScheme.data_matrix()))
        worst = max(worst, rep.train_sse)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-6 and elapsed < 30.0
    assert _verdict(6, ok, f"worst train SSE {worst:.3e} (<=1e-6) over 20 "
                           f"datasets, {elapsed:.1f}s (<30s)")


def test_criterion_07_activation_round_trip():
    start = time.perf_counter()
    x = np.linspace(-10.0, 10.0, 10_000).reshape(1, -1)
    worst = 0.0
    for kind in (pn.ActivationKind.softplus(), SP,
                 pn.ActivationKind.exp_scaled(1e-4)):
        back = pn.invert(kind, pn.apply(kind, x))
        worst = max(worst, float(np.max(np.abs(back - x))))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 1.0
    assert _verdict(7, ok, f"worst |g(f(x))-x| {worst:.3e} (<=1e-10) over "
                           f"1e4 points, {elapsed:.2f}s (<1s)")


def test_criterion_08_solution_count_three_layer_instance():
    got = pn.solution_count(3)
    ok = got == (2, 3)
    assert _verdict(8, ok, f"solution_count(3) = {got} (expect (2, 3))")


def test_criterion_09_small_real_dataset_accuracy():
    start = time.perf_counter()
    ds = pn.load_csv(DATA_DIR / "iris_like.csv", kind="classification")
    plan = pn.CvPlan(folds=10, trials=1, seed=0, stratified=True)
    spec = pn.build_spec("10-3", 4, SP, linear_output=False)
    cfg = pn.TrainConfig(pn.InitScheme.random(0, 1.0))
    accs = []
    for train_idx, test_idx in pn.stratified_kfold(ds, plan):
        tr, te = ds.subset(train_idx), ds.subset(test_idx)
        rep = pn.train(spec, tr.x, pn.training_targets(tr, False), cfg)
        accs.append(pn.accuracy(pn.forward(spec, rep.weights, te.x), te))
    mean = float(np.mean(accs))
    elapsed = time.perf_counter() - start
    ok = mean >= 0.85 and elapsed < 30.0
    assert _verdict(9, ok, f"stratified 10-fold mean accuracy {mean:.3f} "
                           f"(>=0.85), {elapsed:.1f}s (<30s)")


def test_criterion_10_cli_outputs_are_byte_identical(tmp_path):
    def run(argv):
        assert cli_main(argv) == 0

    pairs = []
    s1, s2 = tmp_path / "s1", tmp_path / "s2"
    for out in (s1, s2):
        run(["synth", "spiral", "--arms", "3", "--per-arm", "20",
             "--seed", "1", "--out", str(out)])
    pairs.append((s1, s2, ["spiral_train.csv", "spiral_test.csv",
                           "manifest.json"]))

    t1, t2 = tmp_path / "t1", tmp_path / "t2"
    for out in (t1, t2):
        run(["train", "--data", str(s1 / "spiral_train.csv"),
             "--structure", "8-3", "--seed", "3", "--dump-weights",
             "--out", str(out)])
    pairs.append((t1, t2, ["train_report.json", "manifest.json",
                           "weights_01.csv", "weights_02.csv"]))

    v1, v2 = tmp_path / "v1", tmp_path / "v2"
    for out in (v1, v2):
        run(["variance", "--m", "12", "--d", "3", "--trials", "10",
             "--max-depth", "3", "--seed", "2", "--out", str(out)])
    pairs.append((v1, v2, ["variance.csv", "manifest.json"]))

    mismatches = []
    for a, b, names in pairs:
        for name in names:
            if (a / name).read_bytes() != (b / name).read_bytes():
                mismatches.append(f"{a.name}/{name}")
    checked = sum(len(names) for *_, names in pairs)
    ok = not mismatches
    assert _verdict(10, ok, f"{checked} artifacts byte-compared across "
                            f"paired runs of synth/train/variance"
                            + (f"; mismatches: {mismatches}" if mismatches
                               else ", all identical"))


def test_acceptance_report_is_json_serializable(tmp_path):
    """The verdict lines above are the contract; this guards that the CLI
    manifest format they rely on stays machine-readable."""
    out = tmp_path / "m"
    assert cli_main(["synth", "spiral", "--arms", "2", "--per-arm", "4",
                     "--seed", "0", "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert set(manifest) == {"command", "config_echo", "seed",
                             "artifact_paths"}
