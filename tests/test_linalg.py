import numpy as np
import pytest

from pinvnet.errors import InvalidArgumentError
from pinvnet.linalg import (
    EPS,
    Matrix,
    PinvOptions,
    penrose_residual,
    pinv,
    read_matrix_csv,
    solve_least_squares,
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


def test_solve_least_squares_matches_lstsq_oracle():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((20, 6))
    y = rng.standard_normal((20, 2))
    w = solve_least_squares(a, y)
    oracle, *_ = np.linalg.lstsq(a, y, rcond=None)
    assert np.allclose(w, oracle, atol=1e-10)


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
    back = read_matrix_csv(path)
    assert np.array_equal(m, back)


def test_csv_has_no_header_and_ends_with_newline(tmp_path):
    path = tmp_path / "w.csv"
    write_matrix_csv([[1.5, -2.0]], path)
    text = path.read_text()
    assert text == "1.5,-2\n"


def test_eps_is_float64_machine_epsilon():
    assert EPS == np.finfo(np.float64).eps
