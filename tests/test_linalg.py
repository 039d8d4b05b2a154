import numpy as np
import pytest

from pinvnet.analysis import VarianceReport, write_variance_csv
from pinvnet.datasets import Dataset, encode_targets, write_dataset_csv
from pinvnet.errors import InvalidArgumentError
from pinvnet.linalg import (
    EPS,
    Matrix,
    PinvOptions,
    _pinv_array,
    _pinv_or_inverse,
    penrose_residual,
    pinv,
    sse,
    write_matrix_csv,
)


def test_pinv_column_vector_worked_example():
    # [[3],[4]]+ = [3 4] / 25
    p = pinv([[3.0], [4.0]])
    assert np.allclose(p, [[0.12, 0.16]], atol=1e-15)


def test_pinv_singular_diagonal_inverts_nonzero_entries_only():
    p = pinv([[2.0, 0.0], [0.0, 0.0]])
    assert np.allclose(p, [[0.5, 0.0], [0.0, 0.0]], atol=0)


def test_pinv_gives_minimum_norm_solution_for_underdetermined_row():
    # x1 + x2 = 2 has a line of solutions; the pseudoinverse picks (1, 1)
    x = pinv([[1.0, 1.0]]) @ np.array([[2.0]])
    assert np.allclose(x, [[1.0], [1.0]], atol=1e-14)


def test_pinv_zero_matrix_is_zero_transpose():
    p = pinv(np.zeros((3, 2)))
    assert p.shape == (2, 3)
    assert not p.any()


def test_penrose_conditions_across_random_shapes():
    rng = np.random.default_rng(11)
    for i in range(60):
        m = int(rng.integers(1, 41))
        n = int(rng.integers(1, 31))
        a = rng.standard_normal((m, n))
        if i % 3 == 0 and min(m, n) > 1:
            r = int(rng.integers(1, min(m, n)))
            a = rng.standard_normal((m, r)) @ rng.standard_normal((r, n))
        assert penrose_residual(a, pinv(a)) < 1e-10


def test_automatic_tolerance_truncates_relative_to_largest_singular_value():
    rng = np.random.default_rng(5)
    u, _ = np.linalg.qr(rng.standard_normal((6, 6)))
    v, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    a = u[:, :4] @ np.diag([3.0, 1.0, 1e-20, 0.0]) @ v.T
    p = pinv(a)
    # the 1e-20 direction sits far below max(m,n)*eps*smax and must be dropped
    assert np.linalg.matrix_rank(p) == 2
    assert np.abs(p).max() < 2.0


def test_explicit_tolerance_is_an_absolute_cutoff():
    a = np.diag([2.0, 0.3])
    keep_all = pinv(a, PinvOptions.explicit(0.0))
    truncated = pinv(a, PinvOptions.explicit(0.5))
    assert np.allclose(keep_all, np.diag([0.5, 1 / 0.3]))
    assert np.allclose(truncated, np.diag([0.5, 0.0]))


def test_explicit_tolerance_rejects_negatives():
    with pytest.raises(InvalidArgumentError):
        PinvOptions.explicit(-1e-3)


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_options_reject_non_finite_tolerance_and_ridge(bad):
    with pytest.raises(InvalidArgumentError):
        PinvOptions.explicit(bad)
    with pytest.raises(InvalidArgumentError):
        PinvOptions.automatic(ridge=bad)


def test_ridge_matches_closed_forms_both_orientations():
    rng = np.random.default_rng(7)
    lam = 0.37
    tall = rng.standard_normal((12, 5))
    wide = rng.standard_normal((4, 9))
    pt = pinv(tall, PinvOptions.automatic(ridge=lam))
    pw = pinv(wide, PinvOptions.automatic(ridge=lam))
    ot = np.linalg.solve(tall.T @ tall + lam * np.eye(5), tall.T)
    ow = wide.T @ np.linalg.inv(wide @ wide.T + lam * np.eye(4))
    assert np.allclose(pt, ot, atol=1e-12)
    assert np.allclose(pw, ow, atol=1e-12)


def _orthonormal(rng, rows, cols):
    return np.linalg.qr(rng.standard_normal((rows, cols)))[0]


@pytest.mark.parametrize("shape", [(121, 500), (300, 50)])
def test_ridge_is_the_tikhonov_filter_on_an_ill_conditioned_svd(shape):
    # sigma down to 1e-12 squares past eps in A^T A; the filter on the SVD
    # itself stays accurate
    rng = np.random.default_rng(3)
    k = min(shape)
    u = _orthonormal(rng, shape[0], k)
    v = _orthonormal(rng, shape[1], k)
    s = np.logspace(0, -12, k)
    lam = 1e-16
    got = pinv((u * s) @ v.T, PinvOptions.explicit(0.0, lam))
    want = (v * (s / (s * s + lam))) @ u.T
    assert np.linalg.norm(got - want) <= 1e-6 * np.linalg.norm(want)


def test_ridge_damps_only_the_singular_values_the_cutoff_keeps():
    rng = np.random.default_rng(4)
    u = _orthonormal(rng, 6, 2)
    v = _orthonormal(rng, 4, 2)
    lam = 0.25
    got = pinv((u * [1.0, 1e-3]) @ v.T, PinvOptions.explicit(1e-2, lam))
    want = np.outer(v[:, 0], u[:, 0]) / (1.0 + lam)
    assert np.allclose(got, want, rtol=0, atol=1e-14)


def _cond_bound(a, x):
    """sqrt(|A|_1 |A|_inf |X|_1 |X|_inf), a bound on cond_2(A) for X = A^-1."""
    return np.sqrt(np.prod([np.linalg.norm(b, p) for b in (a, x)
                            for p in (1, np.inf)]))


@pytest.mark.parametrize("n", [1, 3, 8, 200])
def test_certified_square_inverse_agrees_with_pinv(n, monkeypatch):
    rng = np.random.default_rng(n)
    a = rng.uniform(-1, 1, (n, n))
    svd = np.linalg.svd
    calls = []

    def counting_svd(*args, **kwargs):
        calls.append(1)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    got = _pinv_or_inverse(a, PinvOptions())
    assert calls == []  # the LU inverse, not the SVD
    want = pinv(a)
    err = np.linalg.norm(got - want) / np.linalg.norm(want)
    assert err <= n * EPS * _cond_bound(a, got)


def test_one_by_one_inverse_equals_the_svd_path_bit_for_bit():
    # beyond about 1e+-138 the SVD rescales its input and may round sigma
    rng = np.random.default_rng(5)
    values = rng.uniform(-1, 1, 2000) * 10.0 ** rng.uniform(-100, 100, 2000)
    for v in values:
        a = np.array([[v]])
        assert np.array_equal(_pinv_or_inverse(a, PinvOptions()),
                              _pinv_array(a, PinvOptions()))


def _ill_conditioned(n, cond):
    rng = np.random.default_rng(6)
    u = _orthonormal(rng, n, n)
    v = _orthonormal(rng, n, n)
    return (u * np.logspace(0, -np.log10(cond), n)) @ v.T


_WELL = np.random.default_rng(7).uniform(-1, 1, (8, 8))


@pytest.mark.parametrize(
    "a, opts",
    [
        (np.array([[1.0, 2.0], [2.0, 4.0]]), PinvOptions()),  # LU finds it singular
        (np.outer(np.arange(1.0, 7.0), np.linspace(-1, 1, 6))
         + np.outer(np.ones(6), np.arange(6.0)), PinvOptions()),  # rank 2
        (_ill_conditioned(8, 1e15), PinvOptions()),  # invertible, bound fails
        (_ill_conditioned(8, 1e15) * 1e-200, PinvOptions()),  # |A|_1 |A|_inf underflows
        (_WELL, PinvOptions.explicit(0.0)),
        (_WELL, PinvOptions.automatic(1e-2)),
        (_WELL[:, :5], PinvOptions()),
    ],
    ids=["singular", "rank-deficient", "bound-fails", "bound-fails-tiny",
         "explicit", "ridge", "non-square"],
)
def test_square_inverse_falls_back_to_the_svd_bit_for_bit(a, opts):
    assert np.array_equal(_pinv_or_inverse(a, opts), _pinv_array(a, opts))


def test_sse_worked_example():
    assert sse([[1.0, 2.0], [3.0, 4.0]], [[2.0, 4.0], [6.0, 8.0]]) == 30.0


def test_sse_shape_mismatch_raises():
    with pytest.raises(InvalidArgumentError):
        sse(np.ones((2, 2)), np.ones((2, 3)))


def test_penrose_residual_shape_mismatch_raises():
    with pytest.raises(InvalidArgumentError):
        penrose_residual(np.ones((3, 2)), np.ones((3, 2)))


def test_matrix_rejects_non_2d_empty_and_non_finite():
    with pytest.raises(InvalidArgumentError):
        Matrix([1.0, 2.0])
    with pytest.raises(InvalidArgumentError):
        Matrix(np.empty((0, 3)))
    with pytest.raises(InvalidArgumentError):
        Matrix([[np.nan]])
    with pytest.raises(InvalidArgumentError):
        Matrix([[np.inf]])


def test_matrix_is_immutable_and_detached_from_source():
    src = np.ones((2, 2))
    m = Matrix(src)
    src[0, 0] = 99.0
    assert m.array[0, 0] == 1.0
    with pytest.raises(ValueError):
        m.array[0, 0] = 5.0


def test_csv_round_trip_preserves_float64_exactly(tmp_path):
    rng = np.random.default_rng(0)
    m = rng.standard_normal((7, 3)) * 10.0 ** rng.integers(-8, 8, (7, 3))
    path = tmp_path / "w.csv"
    write_matrix_csv(m, path)
    back = np.loadtxt(path, delimiter=",", ndmin=2)
    assert np.array_equal(m, back)


def test_csv_has_no_header_and_ends_with_newline(tmp_path):
    path = tmp_path / "w.csv"
    write_matrix_csv([[1.5, -2.0]], path)
    text = path.read_text()
    assert text == "1.5,-2\n"


def _reference_rows(rows, labels=None):
    """The row loop the CSV writers used before they shared one
    np.savetxt writer: the bytes every CSV artifact must keep."""
    lines = []
    for i, row in enumerate(rows):
        cells = ["%.17g" % v for v in row]
        if labels is not None:
            cells.append(labels[i])
        lines.append(",".join(cells) + "\n")
    return "".join(lines).encode("utf-8")


def test_csv_bytes_match_the_reference_row_loop(tmp_path):
    big = 1.7976931348623157e308
    edge = np.array([[-0.0, 0.0, 5e-324, -5e-324],
                     [big, -big, 1.0, -3.0],
                     [12345678901234567.0, 2.0 ** 60, 0.1, 1e-300]])
    rng = np.random.default_rng(4)
    for m in (edge, rng.standard_normal((9, 5)), rng.integers(-50, 50, (4, 2))):
        path = tmp_path / "w.csv"
        write_matrix_csv(m, path)
        assert path.read_bytes() == _reference_rows(np.asarray(m, float))


def test_dataset_and_variance_csv_bytes_match_the_reference_row_loop(tmp_path):
    x = np.array([[-0.0, 5e-324], [1.7976931348623157e308, 0.1], [3.0, -2.5]])
    names = ("größe", "naïve")
    ds = Dataset(x, encode_targets([1, 0, 1]), names, "classification")
    path = tmp_path / "d.csv"
    write_dataset_csv(ds, path)
    assert path.read_bytes() == _reference_rows(x, ["naïve", "größe", "naïve"])
    write_dataset_csv(Dataset(x, x[:, 1:] * 3.0), path)
    assert path.read_bytes() == _reference_rows(np.hstack([x, x[:, 1:] * 3.0]))
    report = VarianceReport((2.5, 1e-300, 7.0), (0.0, 5e-324, 1e17), (10, 100, 100))
    write_variance_csv(report, path)
    assert path.read_bytes() == _reference_rows(
        [(k + 1, m, s) for k, (m, s) in enumerate(zip(report.per_depth_mean,
                                                      report.per_depth_std))])


def test_eps_is_float64_machine_epsilon():
    assert EPS == np.finfo(np.float64).eps
