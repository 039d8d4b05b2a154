import ast
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from pinvnet.activations import ActivationKind, apply
from pinvnet.analysis import (
    _identity_step,
    _projection_chain,
    _symmetric_step,
    VarianceConfig,
    mc_output_variance,
    solution_count,
    write_variance_csv,
)
from pinvnet.errors import InvalidArgumentError
from pinvnet.linalg import _EPS, penrose_residual, pinv


def _chain(x, activation, max_depth):
    """[H_1 .. H_max_depth] of the projection chain behind mc_output_variance."""
    at_identity = _identity_step(len(x), activation)
    return [h for h, _ in _projection_chain(x, activation, max_depth, at_identity)]


@pytest.mark.parametrize("n,expected", [(2, (1, 2)), (3, (2, 3)), (4, (3, 4))])
def test_solution_count_exponent_and_multiplier(n, expected):
    assert solution_count(n) == expected


def test_solution_count_needs_at_least_two_layers():
    with pytest.raises(InvalidArgumentError):
        solution_count(1)


def test_variance_chain_follows_the_projection_recursion():
    rng = np.random.default_rng(3)
    x = rng.uniform(-5, 5, (7, 4))
    kind = ActivationKind.exp_scaled(1e-4)
    chain = _chain(x, kind, 3)
    assert len(chain) == 3
    assert np.array_equal(chain[0], x)
    h1 = chain[0]
    h2 = apply(kind, h1 @ pinv(h1))
    assert np.allclose(chain[1], h2, atol=1e-12)
    h3 = apply(kind, h2 @ pinv(h2))
    assert np.allclose(chain[2], h3, atol=1e-12)


def test_mc_output_variance_is_deterministic_and_shaped():
    cfg = VarianceConfig(m=20, d=4, trials=15, max_depth=4, seed=5)
    r1 = mc_output_variance(cfg)
    r2 = mc_output_variance(cfg)
    assert r1.per_depth_mean == r2.per_depth_mean
    assert r1.per_depth_std == r2.per_depth_std
    assert len(r1.per_depth_mean) == 4
    # depth 1 probes the d-dim input space, deeper levels the m-dim
    # sample space
    assert r1.x0_dims == (4, 20, 20, 20)
    assert all(v >= 0 for v in r1.per_depth_mean)


def test_depth_one_variance_matches_direct_least_squares():
    # at depth 1 the estimator is x0 @ pinv(X) @ eps; recompute the first
    # trial by hand from the same child stream
    cfg = VarianceConfig(m=10, d=3, trials=1, max_depth=1, seed=9)
    report = mc_output_variance(cfg)
    child = np.random.default_rng(9).spawn(1)[0]
    lo, hi = cfg.input_range
    x = child.uniform(lo, hi, (10, 3))
    eps = child.uniform(-1.0, 1.0, 10) * cfg.noise_scale
    x0 = child.uniform(lo, hi, 3)
    val = float(x0 @ (pinv(x) @ eps)) ** 2
    assert report.per_depth_mean[0] == pytest.approx(val, rel=1e-12)


@pytest.mark.parametrize("bad", [-1, 1.5, True, np.int64(-3)])
def test_variance_config_rejects_a_seed_that_is_not_an_int_ge_0(bad):
    with pytest.raises(InvalidArgumentError, match="seed"):
        VarianceConfig(seed=bad)


def test_variance_config_validation():
    with pytest.raises(InvalidArgumentError):
        VarianceConfig(m=0)
    with pytest.raises(InvalidArgumentError):
        VarianceConfig(trials=0)
    with pytest.raises(InvalidArgumentError):
        VarianceConfig(max_depth=0)
    with pytest.raises(InvalidArgumentError):
        VarianceConfig(input_range=(5.0, -5.0))
    for bad in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(InvalidArgumentError):
            VarianceConfig(input_range=(bad, 1.0))
        with pytest.raises(InvalidArgumentError):
            VarianceConfig(noise_scale=bad)


def test_variance_csv_rows_are_depth_mean_std(tmp_path):
    cfg = VarianceConfig(m=12, d=3, trials=5, max_depth=3, seed=1)
    report = mc_output_variance(cfg)
    path = tmp_path / "v.csv"
    write_variance_csv(report, path)
    lines = path.read_text().strip().split("\n")
    assert len(lines) == 3
    first = lines[0].split(",")
    assert first[0] == "1"
    assert float(first[1]) == pytest.approx(report.per_depth_mean[0])
    assert float(first[2]) == pytest.approx(report.per_depth_std[0])


def test_mc_output_variance_factorizes_each_depth_once(monkeypatch):
    # one SVD of X per trial, one eigh per depth until the chain keeps full
    # rank, and one eigh of f(I) per call that every trial past it reuses
    cfg = VarianceConfig(trials=4, seed=1)  # m=100, depths 1..8
    f_identity = apply(cfg.activation, np.eye(cfg.m))
    log = []
    svd, eigh = np.linalg.svd, np.linalg.eigh

    def counting_svd(a, *args, **kwargs):
        log.append("svd")
        return svd(a, *args, **kwargs)

    def counting_eigh(a, *args, **kwargs):
        lam, v = eigh(a, *args, **kwargs)
        if np.array_equal(a, f_identity):
            log.append("f(I)")
        else:
            size = np.abs(lam)
            full = bool((size > a.shape[0] * _EPS * size.max()).all())
            log.append("full" if full else "deficient")
        return lam, v

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    mc_output_variance(cfg)
    assert log.count("svd") == cfg.trials
    assert log.count("f(I)") == 1
    per_trial = []
    for entry in log:
        if entry == "svd":
            per_trial.append([])
        elif entry != "f(I)":
            per_trial[-1].append(entry)
    for eighs in per_trial:
        # eigh only up to the depth that keeps full rank, then none
        assert eighs[-1] == "full" and "full" not in eighs[:-1]
    assert len(log) < cfg.trials * cfg.max_depth


def test_depths_past_the_fixed_point_equal_the_f_identity_oracle():
    cfg = VarianceConfig(trials=5, seed=0)
    means = mc_output_variance(cfg).per_depth_mean
    assert len(set(means[3:])) == 1  # depths 4..8 sit at f(I), bit for bit
    f_identity = apply(cfg.activation, np.eye(cfg.m))
    lo, hi = cfg.input_range
    want = []
    for child in np.random.default_rng(cfg.seed).spawn(cfg.trials):
        child.uniform(lo, hi, (cfg.m, cfg.d))
        eps = child.uniform(-1.0, 1.0, cfg.m) * cfg.noise_scale
        child.uniform(lo, hi, cfg.d)
        x0_m = child.uniform(lo, hi, cfg.m)
        want.append(float(x0_m @ np.linalg.solve(f_identity, eps)) ** 2)
    assert means[7] == pytest.approx(np.mean(want), rel=1e-9)
    x = np.random.default_rng(0).uniform(-5, 5, (cfg.m, cfg.d))
    chain = _chain(x, cfg.activation, cfg.max_depth)
    assert all(np.array_equal(h, f_identity) for h in chain[3:])


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_variance_past_full_rank_matches_the_closed_form(seed):
    # past full rank every trial projects with the one H+ of f(I); with eps
    # uniform on noise*[-1, 1] and x0 uniform on [lo, hi]^m, independent,
    # E[(x0^T H+ eps)^2] = noise^2/3 * ((hi-lo)^2/12 ||H+||_F^2 + mu^2 ||H+^T 1||^2)
    cfg = VarianceConfig(trials=200, seed=seed)
    lo, hi = cfg.input_range
    mu = (lo + hi) / 2
    h_dag = _identity_step(cfg.m, cfg.activation)()[1]
    exact = cfg.noise_scale ** 2 / 3 * (
        (hi - lo) ** 2 / 12 * np.sum(h_dag ** 2)
        + mu ** 2 * np.sum((h_dag.T @ np.ones(cfg.m)) ** 2))
    report = mc_output_variance(cfg)
    for k in range(4, 9):
        sem = report.per_depth_std[k - 1] / np.sqrt(cfg.trials)
        assert abs(report.per_depth_mean[k - 1] - exact) < 4 * sem, k


@pytest.mark.parametrize("rank", [3, 9])
def test_symmetric_pseudoinverse_satisfies_penrose(rank):
    rng = np.random.default_rng(rank)
    for _ in range(5):
        # orthonormal eigenvectors, eigenvalues of either sign with
        # |lambda| in [0.5, 3], and 9 - rank zero eigenvalues
        q, _ = np.linalg.qr(rng.standard_normal((9, rank)))
        lam = rng.choice([-1.0, 1.0], rank) * rng.uniform(0.5, 3.0, rank)
        h = (q * lam) @ q.T
        same, h_dag, basis = _symmetric_step(h, ActivationKind.identity())
        assert np.array_equal(same, h)
        assert penrose_residual(h, h_dag) <= 1e-10
        assert basis.shape == (9, rank)


# Each run prints the per-depth means of a 50-trial study at one BLAS
# thread count; the runs at 1 and 2 threads must agree bit for bit.
_MEANS_AT_THREADS = """
import sys
from pinvnet.analysis import VarianceConfig, mc_output_variance
rep = mc_output_variance(VarianceConfig(seed=int(sys.argv[1]), trials=50))
print(repr(rep.per_depth_mean))
"""


@pytest.mark.parametrize("seed", [0, 7])
def test_variance_chain_is_thread_count_invariant(seed):
    src = str(Path(__file__).resolve().parent.parent / "src")
    runs = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        env.update(dict.fromkeys(
            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"),
            threads))
        out = subprocess.run([sys.executable, "-c", _MEANS_AT_THREADS, str(seed)],
                             env=env, capture_output=True, text=True, check=True)
        runs.append(ast.literal_eval(out.stdout))
    assert runs[0] == runs[1]
    for means in runs:  # criterion 5's verdict, at 50 trials
        assert all(a >= b for a, b in zip(means[1:], means[2:]))
