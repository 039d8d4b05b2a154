import numpy as np
import pytest

import pinvnet.network as network_module
from pinvnet.activations import ActivationKind, _invert_with_count, apply, invert
from pinvnet.errors import DomainViolationError, InvalidArgumentError
from pinvnet.linalg import PinvOptions, _pinv_array, _pinv_or_inverse, pinv, sse
from pinvnet.network import (WeightSet, _default_masks, build_spec, forward,
                             hidden_activation)
from pinvnet.training import (InitScheme, TrainConfig, _pull_step, solve_masked_layer,
                              train)

SP = ActivationKind.softplus08()
ID = ActivationKind.identity()


def augment(x):
    return np.hstack([np.ones((len(x), 1)), x])


def _sinc_data():
    x = np.arange(1.0, 9.0).reshape(-1, 1)
    return x, np.sin(2 * x) / (2 * x)


def test_two_layer_curve_fit_reaches_float_noise_floor():
    # 8 samples, 8 hidden units: the hidden activation is square, so the
    # output projection can interpolate exactly (seed chosen so the whole
    # back chain stays inside the inverse domain)
    x, y = _sinc_data()
    spec = build_spec("8-1", 1, SP, linear_output=False)
    report = train(spec, x, y, TrainConfig(InitScheme.random(7, 1.0)))
    assert report.train_sse <= 1e-8
    assert len(report.per_layer_solve_residuals) == 2
    assert len(report.clamped_entry_counts) == 2


def test_training_is_deterministic_for_a_fixed_seed():
    x, y = _sinc_data()
    spec = build_spec("6-4-1", 1, SP, linear_output=False)
    cfg = TrainConfig(InitScheme.random(3, 0.5))
    r1 = train(spec, x, y, cfg)
    r2 = train(spec, x, y, cfg)
    for a, b in zip(r1.weights.weights, r2.weights.weights):
        assert np.array_equal(a.array, b.array)
    assert r1.train_sse == r2.train_sse
    assert r1.per_layer_solve_residuals == r2.per_layer_solve_residuals


def test_single_layer_linear_net_is_ordinary_least_squares():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((15, 3))
    y = rng.standard_normal((15, 2))
    spec = build_spec("2", 3, ID, linear_output=True)
    report = train(spec, x, y, TrainConfig(InitScheme.random(0)))
    oracle, *_ = np.linalg.lstsq(augment(x), y, rcond=None)
    assert np.allclose(report.weights.weights[0].array, oracle, atol=1e-10)


def test_single_layer_invertible_output_solves_against_inverted_targets():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((12, 3))
    y = rng.uniform(0.5, 2.0, (12, 2))  # safely above the ln 0.8 floor
    spec = build_spec("2", 3, SP, linear_output=False)
    report = train(spec, x, y, TrainConfig(InitScheme.random(0)))
    w = report.weights.weights[0].array
    oracle = pinv(augment(x)) @ invert(SP, y)
    assert np.allclose(w, oracle, atol=1e-10)


@pytest.mark.parametrize("spec, x, y, init, margin, message", [
    # 1e300 targets times the LU inverse of a 1e-300 placeholder
    (build_spec("1-1", 1, ID, linear_output=True), np.ones((3, 1)),
     np.full((3, 1), 1e300), InitScheme.random(0, 1e-300), 1e-9,
     "back-chained target for layer 1 must be finite"),
    # solving layer 2 first builds its design from x times layer 1's
    # placeholder, 1e10 times up to 1e300
    (build_spec("4-3-1", 2, SP), np.full((6, 2), 1e10), np.full((6, 1), 0.5),
     InitScheme.random(0, 1e300, solve_order=(2, 1)), 1e-9,
     "pre-activation of layer 1 must be finite"),
    # solving layer 2 first against y pulled through a 1e-300 placeholder
    # (about 1e300) on a design of about 1e-300: the weight is about 1e600
    (build_spec("1-1-1", 1, ID, linear_output=True), np.arange(1.0, 4.0).reshape(3, 1),
     np.ones((3, 1)), InitScheme.random(0, 1e-300, solve_order=(2, 1)), 1e-9,
     "solved weight of layer 2 must be finite"),
    # y = 0 is clamped to the floor 1e308; the design [[1, 1], [1, 2]]
    # inverts to [[2, -1], [-1, 1]], so the intercept is 2 * 1.7e308 - 1e308
    (build_spec("1", 1, SP), np.array([[1.0], [2.0]]), np.array([[1.7e308], [0.0]]),
     InitScheme.random(0), 1e308,
     r"solved weight of layer 1 \(from a target clamped to floor 1e\+308 = lower "
     r"bound -0\.2231435513142097 \+ clamp_margin 1e\+308\) must be finite"),
], ids=["pulled_target", "pre_activation", "solved_weight", "clamped_solved_weight"])
def test_train_raises_naming_the_product_that_overflows(spec, x, y, init, margin,
                                                        message):
    # only a target that a clamp fed names the clamp floor and clamp_margin
    with np.errstate(over="ignore"), pytest.raises(
            InvalidArgumentError, match=rf"^{message}$"):
        train(spec, x, y, TrainConfig(init, clamp_margin=margin))


def test_pull_step_peels_one_linear_layer():
    # with identity activations, peeling W2 off Y is just Y @ pinv(W2)
    rng = np.random.default_rng(5)
    y = rng.standard_normal((6, 2))
    w2 = rng.standard_normal((4, 2))
    t = _pull_step(y, w2, PinvOptions(), "target")
    assert np.allclose(t, y @ pinv(w2), atol=1e-13)


def test_pull_step_takes_the_target_already_through_the_inverse():
    rng = np.random.default_rng(6)
    y = rng.uniform(0.5, 2.0, (6, 2))
    w2 = rng.standard_normal((4, 2))
    g, _ = _invert_with_count(SP, y, 1e-9)
    t = _pull_step(g, w2, PinvOptions(), "target")
    assert np.allclose(t, invert(SP, y) @ pinv(w2), atol=1e-13)


def test_pull_steps_reproduce_feasible_deep_targets():
    # push a feasible hidden state forward through two layers, then peel
    # the layers back off from the output side; pushing the peeled target
    # forward again must land exactly on y
    rng = np.random.default_rng(8)
    a1 = apply(SP, rng.uniform(-1, 1, (5, 4)))
    w2 = rng.standard_normal((4, 3))
    w3 = rng.standard_normal((3, 3))
    y = apply(SP, apply(SP, a1 @ w2) @ w3)
    t = y
    for w in (w3, w2):
        t = _pull_step(_invert_with_count(SP, t, 1e-9)[0], w, PinvOptions(), "target")
    assert np.allclose(apply(SP, apply(SP, t @ w2) @ w3), y, atol=1e-8)


def test_placeholders_are_uniform_and_scaled_by_c():
    x, y = _sinc_data()
    spec = build_spec("8-1", 1, SP, linear_output=False)
    big = train(spec, x, y, TrainConfig(InitScheme.random(7, 1.0)))
    # with the same seed, R2 for c=1 is the raw uniform draw; the solved
    # first layer must therefore coincide with the c=0.1 run up to the
    # rescaled back target
    rng = np.random.default_rng(7)
    r2 = rng.uniform(-1.0, 1.0, (8, 1))
    t = invert(SP, y) @ pinv(r2)
    w1 = pinv(augment(x)) @ invert(SP, t)
    assert np.allclose(big.weights.weights[0].array, w1, atol=1e-10)


def test_custom_solve_order_changes_the_result_but_not_feasibility():
    # last hidden width equals the sample count, so the output solve is
    # square and exact under either inner ordering
    rng = np.random.default_rng(9)
    x = rng.uniform(-1, 1, (6, 2))
    y = rng.uniform(0.5, 1.5, (6, 2))
    spec = build_spec("8-6-2", 2, SP, linear_output=False)
    fwd = train(spec, x, y, TrainConfig(InitScheme.random(15, 0.5)))
    rev = train(spec, x, y, TrainConfig(
        InitScheme.random(15, 0.5, solve_order=(2, 1))))
    assert fwd.train_sse <= 1e-8
    assert rev.train_sse <= 1e-8
    assert not np.allclose(fwd.weights.weights[0].array,
                           rev.weights.weights[0].array)


@pytest.mark.parametrize("seed", [0, 3, 1])
def test_deep_narrow_curve_fit_mechanism(seed):
    # why criterion 3's deep narrow scenario (1-1-1-8-1 at c = 0.1) misses
    # train SSE <= 1e-6: in seeds 0 and 3 a width-1 stage collapses, every
    # row of the final 8x8 design is the same, and the output layer can
    # only fit a constant; in seed 1 one scalar feature feeds the 8-wide
    # layer through bias-free inner layers, and the design keeps rank > 1
    # but is numerically singular
    x, y = _sinc_data()
    spec = build_spec("1-1-1-8-1", 1, SP, linear_output=False)
    report = train(spec, x, y, TrainConfig(InitScheme.random(seed, 0.1)))
    design = hidden_activation(spec, report.weights, x, spec.n_layers - 1)
    assert design.shape == (8, 8)
    if seed in (0, 3):
        assert np.all(design == design[0])
        assert np.linalg.matrix_rank(design) == 1
        assert report.train_sse == pytest.approx(0.2827938469126435, rel=1e-9)
    else:
        assert np.linalg.matrix_rank(design) > 1
        assert np.linalg.cond(design) > 1e15
        assert 1e-6 < report.train_sse < 0.1


@pytest.mark.parametrize("order", [(1,), (1, 1), (2, 3), (0, 1)])
def test_invalid_solve_orders_are_rejected(order):
    spec = build_spec("4-4-1", 1, SP, linear_output=False)
    x, y = _sinc_data()
    with pytest.raises(InvalidArgumentError):
        train(spec, x, y, TrainConfig(InitScheme.random(0, 1.0, order)))


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_non_finite_scale_and_margin_are_rejected(bad):
    with pytest.raises(InvalidArgumentError, match="scale_c"):
        InitScheme.random(0, bad)
    with pytest.raises(InvalidArgumentError, match="clamp_margin"):
        TrainConfig(InitScheme.random(0), clamp_margin=bad)


@pytest.mark.parametrize("bad", [-1, 1.5, True, np.int64(-3)])
def test_init_scheme_rejects_a_seed_that_is_not_an_int_ge_0(bad):
    with pytest.raises(InvalidArgumentError, match="seed"):
        InitScheme.random(bad)
    assert InitScheme.random(np.int64(3)).seed == 3


def test_data_matrix_init_reaches_zero_error_when_rows_span():
    # hidden width equals the sample count; with m <= d+1 the augmented
    # input has full row rank and the projection is exact
    rng = np.random.default_rng(10)
    x = rng.standard_normal((5, 8))
    y = rng.uniform(0.5, 2.0, (5, 3))
    spec = build_spec("5-5-3", 8, SP, linear_output=False)
    report = train(spec, x, y, TrainConfig(InitScheme.data_matrix()))
    assert report.train_sse <= 1e-10
    assert all(r <= 1e-8 for r in report.per_layer_solve_residuals[:-1])


def test_data_matrix_init_requires_hidden_widths_equal_to_samples():
    rng = np.random.default_rng(11)
    x = rng.standard_normal((6, 2))
    y = rng.standard_normal((6, 1))
    spec = build_spec("4-1", 2, SP, linear_output=True)
    with pytest.raises(InvalidArgumentError):
        train(spec, x, y, TrainConfig(InitScheme.data_matrix()))


def test_data_matrix_init_rejects_receptive_masks():
    rng = np.random.default_rng(12)
    x = rng.standard_normal((6, 2))
    y = rng.standard_normal((6, 1))
    spec = build_spec("6^r3-1", 2, SP, linear_output=True)
    with pytest.raises(InvalidArgumentError):
        train(spec, x, y, TrainConfig(InitScheme.data_matrix()))


def test_data_matrix_init_rejects_custom_order_at_construction():
    with pytest.raises(InvalidArgumentError):
        InitScheme("data_matrix", solve_order=(1,))


def test_masked_solve_recovers_a_planted_banded_layer():
    rng = np.random.default_rng(13)
    a = rng.standard_normal((30, 6))
    mask = np.zeros((6, 5), dtype=bool)
    for j in range(5):
        mask[j : j + 2, j] = True
    w_true = np.where(mask, rng.standard_normal((6, 5)), 0.0)
    t = a @ w_true
    w = solve_masked_layer(a, t, mask)
    assert np.allclose(w, w_true, atol=1e-8)
    assert not w[~mask].any()


def test_masked_solve_leaves_empty_columns_at_zero():
    a = np.random.default_rng(14).standard_normal((4, 3))
    mask = np.zeros((3, 2), dtype=bool)
    mask[:, 0] = True
    w = solve_masked_layer(a, np.ones((4, 2)), mask)
    assert not w[:, 1].any()


def test_training_respects_first_layer_receptive_mask():
    rng = np.random.default_rng(15)
    x = rng.uniform(-1, 1, (20, 6))
    y = rng.uniform(0.5, 1.5, (20, 2))
    spec = build_spec("6^r3-2", 6, SP, linear_output=False)
    report = train(spec, x, y, TrainConfig(InitScheme.random(2, 0.5)))
    mask = _default_masks(spec)[0]
    w1 = report.weights.weights[0].array
    assert not w1[~mask].any()
    assert w1[mask].any()


def test_clamped_entry_counts_surface_domain_repairs():
    x, _ = _sinc_data()
    y = np.full((8, 1), -2.0)  # below softplus08's inverse domain
    spec = build_spec("1", 1, SP, linear_output=False)
    report = train(spec, x, y, TrainConfig(InitScheme.random(0)))
    assert report.clamped_entry_counts == [8]


def test_clamp_margin_zero_turns_repairs_into_errors():
    x, _ = _sinc_data()
    y = np.full((8, 1), -2.0)
    spec = build_spec("1", 1, SP, linear_output=False)
    cfg = TrainConfig(InitScheme.random(0), clamp_margin=0.0)
    with pytest.raises(DomainViolationError):
        train(spec, x, y, cfg)


def test_explicit_zero_tolerance_is_honoured_per_config():
    rng = np.random.default_rng(16)
    x = rng.standard_normal((9, 4))
    y = rng.standard_normal((9, 2))
    spec = build_spec("2", 4, ID, linear_output=True)
    opts = PinvOptions.explicit(0.0)
    report = train(spec, x, y, TrainConfig(InitScheme.random(0), opts))
    oracle = pinv(augment(x), opts) @ y
    assert np.array_equal(report.weights.weights[0].array, oracle)


def test_forward_after_training_matches_reported_sse():
    x, y = _sinc_data()
    spec = build_spec("8-4-1", 1, SP, linear_output=False)
    report = train(spec, x, y, TrainConfig(InitScheme.random(5, 0.5)))
    g = forward(spec, report.weights, x)
    assert report.train_sse == pytest.approx(sse(g, y), rel=1e-12)


@pytest.mark.parametrize(
    "structure, linear_output, init, opts, shape",
    [
        ("9-7-5-2", False, InitScheme.random(4, 0.7), PinvOptions(), (20, 3)),
        ("9-7-5-2", True, InitScheme.random(4, 0.7), PinvOptions(), (20, 3)),
        ("12-8^r3-6^r5-2", False, InitScheme.random(4, 0.7), PinvOptions(),
         (20, 3)),
        ("9-7-5-2", False, InitScheme.random(4, 0.7, (3, 1, 2)),
         PinvOptions.explicit(0.0), (20, 3)),
        ("20-20-2", False, InitScheme.data_matrix(), PinvOptions(), (20, 3)),
        ("20-20-2", True, InitScheme.data_matrix(), PinvOptions(ridge=1e-2),
         (20, 3)),
        # wide input: layer 1's ridge solve sees 9 design columns over 5 rows
        ("5-5-2", False, InitScheme.data_matrix(), PinvOptions(ridge=1e-2),
         (5, 8)),
    ],
)
def test_train_sse_is_the_forward_pass_bit_for_bit(
    structure, linear_output, init, opts, shape
):
    rng = np.random.default_rng(21)
    x = rng.uniform(-1, 1, shape)
    y = rng.uniform(0.2, 1.5, (shape[0], 2))
    spec = build_spec(structure, shape[1], SP, linear_output=linear_output)
    report = train(spec, x, y, TrainConfig(init, opts))
    assert report.train_sse == sse(forward(spec, report.weights, x), y)


def _reference_train(spec, x, y, cfg):
    """The direct random-init algorithm: every layer rebuilds its design
    from aug(x) and re-pseudoinverts every downstream weight, n(n+1)/2
    factorizations in the default order, pulling through the same
    square-inverse path as `train`. Returns (weights, residuals, clamp
    counts) as plain arrays."""
    n = spec.n_layers
    f = spec.activation
    masks = _default_masks(spec)
    xa = augment(x)
    opts, margin = cfg.pinv_opts, cfg.clamp_margin
    rng = np.random.default_rng(cfg.init.seed)
    c = cfg.init.scale_c

    def draw(k):
        r = rng.uniform(-1.0, 1.0, (spec.in_dims[k - 1], spec.widths[k - 1])) * c
        return r if masks[k - 1] is None else np.where(masks[k - 1], r, 0.0)

    placeholders = {k: draw(k) for k in range(2, n + 1)}
    order = [*(cfg.init.solve_order or range(1, n)), n]
    if order[0] != 1:
        placeholders[1] = draw(1)
    current = {}

    def eff(j):
        return current.get(j, placeholders.get(j))

    residuals, counts = [0.0] * n, [0] * n
    for k in order:
        a = xa
        for j in range(1, k):
            a = apply(f, a @ eff(j))
        t, clamped = y, 0
        for j in range(n, k, -1):
            if not (j == n and spec.linear_output):
                t, cj = _invert_with_count(f, t, margin)
                clamped += cj
            t = t @ _pinv_or_inverse(eff(j), opts)
        if not (k == n and spec.linear_output):
            t, cj = _invert_with_count(f, t, margin)
            clamped += cj
        if masks[k - 1] is not None:
            wk = solve_masked_layer(a, t, masks[k - 1], opts)
        else:
            wk = _pinv_array(a, opts) @ t
        current[k] = wk
        residuals[k - 1] = float(np.linalg.norm(a @ wk - t))
        counts[k - 1] = clamped
    return [current[k] for k in range(1, n + 1)], residuals, counts


def _reference_data_matrix_train(spec, x, y, cfg):
    """The data-matrix algorithm as its own loop: every hidden weight is
    the pseudoinverse of its design, the output layer solves against y.
    Returns (weights, residuals, clamp counts, train SSE); a hidden
    layer's residual is ||A W_k - I||."""
    n, m = spec.n_layers, x.shape[0]
    f = spec.activation
    opts, margin = cfg.pinv_opts, cfg.clamp_margin
    residuals, counts, solved = [0.0] * n, [0] * n, []
    a = augment(x)
    for k in range(1, n):
        wk = _pinv_array(a, opts)
        residuals[k - 1] = float(np.linalg.norm(a @ wk - np.eye(m)))
        solved.append(wk)
        a = apply(f, a @ wk)
    t = y
    if not spec.linear_output:
        t, counts[n - 1] = _invert_with_count(f, t, margin)
    wn = _pinv_array(a, opts) @ t
    residuals[n - 1] = float(np.linalg.norm(a @ wn - t))
    solved.append(wn)
    return solved, residuals, counts, sse(forward(spec, WeightSet(solved), x), y)

def _bit_identity_data():
    rng = np.random.default_rng(21)
    return rng.uniform(-1, 1, (20, 3)), rng.uniform(0.2, 1.5, (20, 2))


@pytest.mark.parametrize(
    "structure, linear_output, order, opts",
    [
        ("9-7-5-2", False, None, PinvOptions()),
        ("9-7-5-2", False, (3, 2, 1), PinvOptions()),
        ("9-7-5-4-2", False, (2, 1, 3, 4), PinvOptions()),
        ("12-8^r3-6-2", False, None, PinvOptions()),
        ("12-8^r3-6-2", False, (2, 3, 1), PinvOptions()),
        ("9-7-5-2", True, None, PinvOptions()),
        ("9-7-5-2", True, (3, 1, 2), PinvOptions()),
        ("9-7-5-2", False, None, PinvOptions.explicit(0.0)),
        ("9-7-5-2", False, (2, 1, 3), PinvOptions.automatic(1e-2)),
        # square placeholders and weights: pulled through by LU inverses
        ("8-8-8-2", False, None, PinvOptions()),
        ("8-8-8-2", False, (2, 1, 3), PinvOptions()),
    ],
)
def test_cached_train_is_bit_identical_to_the_direct_algorithm(
    structure, linear_output, order, opts
):
    x, y = _bit_identity_data()
    spec = build_spec(structure, 3, SP, linear_output=linear_output)
    cfg = TrainConfig(InitScheme.random(4, 0.7, order), opts)
    report = train(spec, x, y, cfg)
    weights, residuals, counts = _reference_train(spec, x, y, cfg)
    for got, want in zip(report.weights.weights, weights):
        assert np.array_equal(got.array, want)
    assert report.per_layer_solve_residuals == residuals
    assert report.clamped_entry_counts == counts


@pytest.mark.parametrize("order, applies", [(None, 4), ((3, 2, 1), 6), ((2, 1, 3), 5)])
def test_train_builds_a_design_only_for_a_solve_that_reads_it(monkeypatch, order,
                                                              applies):
    # f is applied once per design a solve reads, plus once for the
    # output; a design built after solving layer k is not dropped unread
    # when the next solve is of a layer before k
    calls = []
    monkeypatch.setattr(network_module, "_apply",
                        lambda f, a: calls.append(1) or apply(f, a))
    x, y = _bit_identity_data()
    spec = build_spec("9-7-5-2", 3, SP)
    train(spec, x, y, TrainConfig(InitScheme.random(4, 0.7, order)))
    assert len(calls) == applies


def test_cached_train_raises_like_the_direct_algorithm_without_clamping():
    x, y = _bit_identity_data()
    spec = build_spec("9-7-5-2", 3, SP, linear_output=False)
    cfg = TrainConfig(InitScheme.random(4, 0.7), clamp_margin=0.0)
    with pytest.raises(DomainViolationError) as got:
        train(spec, x, y, cfg)
    with pytest.raises(DomainViolationError) as want:
        _reference_train(spec, x, y, cfg)
    assert type(got.value) is type(want.value)
    assert (got.value.position, got.value.value) == (
        want.value.position, want.value.value)


@pytest.mark.parametrize(
    "structure, linear_output, opts",
    [
        ("20-2", False, PinvOptions()),
        ("20-20-2", False, PinvOptions()),
        ("20-20-20-2", True, PinvOptions()),
        ("20-20-2", False, PinvOptions.explicit(0.0)),
        ("20-20-20-2", False, PinvOptions.automatic(1e-2)),
    ],
)
def test_data_matrix_train_is_bit_identical_to_its_own_loop(
    structure, linear_output, opts
):
    x, y = _bit_identity_data()
    spec = build_spec(structure, 3, SP, linear_output=linear_output)
    cfg = TrainConfig(InitScheme.data_matrix(), opts)
    report = train(spec, x, y, cfg)
    weights, residuals, counts, train_sse = _reference_data_matrix_train(
        spec, x, y, cfg)
    for got, want in zip(report.weights.weights, weights, strict=True):
        assert np.array_equal(got.array, want)
    assert report.per_layer_solve_residuals == residuals
    assert report.clamped_entry_counts == counts
    assert report.train_sse == train_sse


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_default_order_train_factorizes_2n_minus_1_times(n, monkeypatch):
    calls = []
    svd = np.linalg.svd

    def counting_svd(*args, **kwargs):
        calls.append(1)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    x, y = _bit_identity_data()
    structure = "-".join(["9", "8", "7", "6"][: n - 1] + ["2"])
    spec = build_spec(structure, 3, SP, linear_output=False)
    train(spec, x, y, TrainConfig(InitScheme.random(4, 0.7)))
    assert len(calls) == 2 * n - 1


def test_square_placeholders_are_pulled_through_by_lu_inverses(monkeypatch):
    # 8-8-8-2 has square 8x8 placeholders at layers 2 and 3: of its 2n - 1
    # = 7 factorizations, 4 design solves and the 8x2 pull take the SVD
    calls = {"svd": 0, "inv": 0}
    for name in calls:
        real = getattr(np.linalg, name)

        def counting(*args, _name=name, _real=real, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counting)
    x, y = _bit_identity_data()
    spec = build_spec("8-8-8-2", 3, SP, linear_output=False)
    train(spec, x, y, TrainConfig(InitScheme.random(4, 0.7)))
    assert calls == {"svd": 5, "inv": 2}


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_data_matrix_train_factorizes_n_times(n, monkeypatch):
    calls = []
    svd = np.linalg.svd

    def counting_svd(*args, **kwargs):
        calls.append(1)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    x, y = _bit_identity_data()
    spec = build_spec("-".join(["20"] * (n - 1) + ["2"]), 3, SP,
                      linear_output=False)
    train(spec, x, y, TrainConfig(InitScheme.data_matrix()))
    assert len(calls) == n
