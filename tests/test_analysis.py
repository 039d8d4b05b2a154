import numpy as np
import pytest

from pinvnet.activations import ActivationKind, apply
from pinvnet.analysis import (
    VarianceConfig,
    mc_output_variance,
    representation_check,
    solution_count,
    squared_bias,
    variance_chain,
    write_variance_csv,
)
from pinvnet.errors import InvalidArgumentError
from pinvnet.linalg import pinv


def test_representation_check_accepts_targets_in_the_column_space():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((10, 4))
    y = a @ rng.standard_normal((4, 2))
    rep = representation_check(a, y)
    assert rep.is_representative
    assert rep.residual <= 1e-12
    assert rep.rank_estimate == 4


def test_representation_check_rejects_targets_outside_the_span():
    rng = np.random.default_rng(1)
    basis = rng.standard_normal((8, 3))
    a = basis @ rng.standard_normal((3, 5))  # rank 3 by construction
    q, _ = np.linalg.qr(basis)
    # build y orthogonal to the column space
    full, _ = np.linalg.qr(rng.standard_normal((8, 8)))
    y = full - q @ (q.T @ full)
    rep = representation_check(a, y[:, :2])
    assert not rep.is_representative
    assert rep.rank_estimate == 3
    assert rep.residual > 1e-3


def test_square_full_rank_design_represents_everything():
    rng = np.random.default_rng(2)
    a = rng.standard_normal((5, 5))
    y = rng.standard_normal((5, 3))
    assert representation_check(a, y).is_representative


@pytest.mark.parametrize("n,expected", [(2, (1, 2)), (3, (2, 3)), (4, (3, 4))])
def test_solution_count_exponent_and_multiplier(n, expected):
    assert solution_count(n) == expected


def test_solution_count_needs_at_least_two_layers():
    with pytest.raises(InvalidArgumentError):
        solution_count(1)


def test_squared_bias_is_mean_squared_gap_of_the_trial_average():
    preds = [np.array([[2.0], [4.0]]), np.array([[0.0], [2.0]])]
    truth = np.array([[0.0], [0.0]])
    # trial average is (1, 3); squared gaps (1, 9) average to 5
    assert squared_bias(preds, truth) == pytest.approx(5.0)
    with pytest.raises(InvalidArgumentError):
        squared_bias([], truth)


def test_variance_chain_follows_the_projection_recursion():
    rng = np.random.default_rng(3)
    x = rng.uniform(-5, 5, (7, 4))
    kind = ActivationKind.exp_scaled(1e-4)
    chain = variance_chain(x, kind, 3)
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


def test_variance_config_validation():
    with pytest.raises(InvalidArgumentError):
        VarianceConfig(m=0)
    with pytest.raises(InvalidArgumentError):
        VarianceConfig(trials=0)
    with pytest.raises(InvalidArgumentError):
        VarianceConfig(max_depth=0)
    with pytest.raises(InvalidArgumentError):
        VarianceConfig(input_range=(5.0, -5.0))


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
    calls = []
    svd = np.linalg.svd

    def counting_svd(*args, **kwargs):
        calls.append(1)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    cfg = VarianceConfig(m=12, d=3, trials=3, max_depth=4, seed=1)
    mc_output_variance(cfg)
    assert len(calls) == cfg.trials * cfg.max_depth
